"""Tests for Definitions 2-4 (repro.core.fairness)."""

import math
import random

import numpy as np
import pytest

from repro.core.fairness import (check_f_efficiency, check_s_fairness,
                                 jain_index, starvation_evidence,
                                 throughput_ratio)


class TestThroughputRatio:
    def test_equal_flows(self):
        assert throughput_ratio([5.0, 5.0]) == 1.0

    def test_ordering_irrelevant(self):
        assert throughput_ratio([2.0, 10.0]) == 5.0
        assert throughput_ratio([10.0, 2.0]) == 5.0

    def test_zero_flow_is_infinite(self):
        assert math.isinf(throughput_ratio([0.0, 1.0]))

    def test_single_flow(self):
        assert throughput_ratio([3.0]) == 1.0


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_total_unfairness_approaches_1_over_n(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_between_zero_and_one(self):
        assert 0 < jain_index([1.0, 2.0, 3.0]) <= 1.0

    def test_empty_and_all_zero_are_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0
        assert jain_index([0, 0, 0]) == 1.0

    @staticmethod
    def numpy_jain(throughputs):
        """The numpy expression ``jain_index`` was until it went plain."""
        xs = np.asarray(list(throughputs), dtype=float)
        if len(xs) == 0 or (xs == 0).all():
            return 1.0
        return float(xs.sum() ** 2 / (len(xs) * (xs ** 2).sum()))

    def test_matches_numpy_reference(self):
        # ``jain`` is in every matrix --json file and daemon result, so
        # up to 7 flows (numpy's plain-accumulation range; no spec puts
        # 8 in a cell) the plain-Python index must equal the numpy one
        # bit for bit. From 8 on numpy sums pairwise and about half the
        # cases differ in the last digits: worst 1.4e-15 relative over
        # 400k cases of 8-16 flows, so the bound here is 2e-15.
        rng = random.Random(20221)
        for _ in range(4000):
            n = rng.randint(1, 12)
            scale = 10.0 ** rng.uniform(-3, 9)
            xs = [rng.choice((0.0, rng.random() * scale,
                              float(rng.randint(0, 1000))))
                  for _ in range(n)]
            got, want = jain_index(xs), self.numpy_jain(xs)
            if n <= 7:
                assert got == want, (xs, got, want)
            else:
                assert math.isclose(got, want, rel_tol=2e-15), (xs, got, want)


class TestSFairness:
    def make_curves(self, rates, duration=10.0, dt=0.1):
        times = np.arange(dt, duration + dt, dt)
        return times, [r * times for r in rates]

    def test_fair_network_is_s_fair(self):
        times, curves = self.make_curves([1000.0, 1100.0])
        verdict = check_s_fairness(times, curves, s=2.0)
        assert verdict.is_s_fair
        assert verdict.final_ratio == pytest.approx(1.1)

    def test_unfair_network_fails_small_s(self):
        times, curves = self.make_curves([1000.0, 5000.0])
        verdict = check_s_fairness(times, curves, s=2.0)
        assert not verdict.is_s_fair
        assert check_s_fairness(times, curves, s=6.0).is_s_fair

    def test_late_convergence_detected(self):
        times = np.arange(0.1, 10.1, 0.1)
        fast = 1000.0 * times
        # Slow flow idles for 5 s then catches up at the same rate.
        slow = np.where(times < 5.0, 1.0, 1000.0 * (times - 5.0) + 1.0)
        verdict = check_s_fairness(times, [fast, slow], s=3.0)
        assert verdict.is_s_fair
        assert verdict.satisfied_from > 5.0

    def test_invalid_s_rejected(self):
        times, curves = self.make_curves([1.0, 1.0])
        with pytest.raises(ValueError):
            check_s_fairness(times, curves, s=0.5)


class TestFEfficiency:
    def test_full_rate_flow_is_f_efficient(self):
        times = np.arange(0.1, 10.1, 0.1)
        delivered = 1000.0 * times
        verdict = check_f_efficiency(times, delivered, link_rate=1000.0,
                                     f=0.9)
        assert verdict.is_f_efficient
        assert verdict.best_fraction == pytest.approx(1.0)

    def test_half_rate_flow_fails_high_f(self):
        times = np.arange(0.1, 10.1, 0.1)
        delivered = 500.0 * times
        verdict = check_f_efficiency(times, delivered, link_rate=1000.0,
                                     f=0.9)
        assert not verdict.is_f_efficient
        assert check_f_efficiency(times, delivered, 1000.0,
                                  f=0.4).is_f_efficient

    def test_bursty_flow_counts_best_window(self):
        """Definition 4 only needs the fraction to be reached at SOME
        arbitrarily large time, so a CCA alternating between fast and
        slow epochs still qualifies at its peak cumulative fraction."""
        times = np.arange(0.1, 20.1, 0.1)
        rate = np.where((times // 5) % 2 == 0, 2000.0, 0.0)
        delivered = np.cumsum(rate * 0.1)
        verdict = check_f_efficiency(times, delivered, link_rate=1000.0,
                                     f=0.9)
        assert verdict.is_f_efficient

    def test_invalid_f_rejected(self):
        with pytest.raises(ValueError):
            check_f_efficiency(np.array([1.0]), np.array([1.0]), 1.0,
                               f=0.0)


def test_starvation_evidence_thresholds():
    evidence = starvation_evidence([1.0, 5.0, 12.0])
    assert evidence["final_ratio"] == 12.0
    assert evidence["violated_s"] == [2, 5, 10]
