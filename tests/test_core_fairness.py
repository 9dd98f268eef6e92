"""Tests for Definition 2 and the fairness numbers (repro.core.fairness)."""

import math
import random

import numpy as np
import pytest

from repro.core.fairness import (check_s_fairness, jain_index,
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
        assert verdict.satisfied_from == times[0]
        assert math.isnan(verdict.violated_from)

    def test_unfair_network_fails_small_s(self):
        times, curves = self.make_curves([1000.0, 5000.0])
        verdict = check_s_fairness(times, curves, s=2.0)
        assert not verdict.is_s_fair
        assert verdict.violated_from == times[0]
        assert check_s_fairness(times, curves, s=6.0).is_s_fair

    def test_late_convergence_detected(self):
        times = np.arange(0.1, 10.1, 0.1)
        fast = 1000.0 * times
        # Slow flow idles for 5 s then catches up at the same rate.
        slow = np.where(times < 5.0, 1.0, 1000.0 * (times - 5.0) + 1.0)
        verdict = check_s_fairness(times, [fast, slow], s=3.0)
        assert verdict.is_s_fair
        assert verdict.satisfied_from > 5.0
        assert math.isnan(verdict.violated_from)

    def test_late_divergence_dates_the_violation(self):
        """The verdict works the other way too: a flow that stops at
        5 s is starved from the first sample whose ratio reaches s."""
        times = np.arange(0.1, 10.1, 0.1)
        fast = 1000.0 * times
        slow = 1000.0 * np.minimum(times, 5.0)
        verdict = check_s_fairness(times, [fast, slow], s=1.5)
        assert not verdict.is_s_fair
        assert math.isnan(verdict.satisfied_from)
        # fast / slow = t / 5 first reaches 1.5 at t = 7.5.
        assert verdict.violated_from == pytest.approx(7.5)
        assert verdict.final_ratio == pytest.approx(2.0)

    def test_origin_counts_throughput_from_the_window(self):
        """With ``origin`` the bytes are over ``t - origin``; samples at
        or before it are skipped."""
        times = [1.0, 2.0, 3.0, 4.0]
        curves = [[0.0, 100.0, 200.0, 300.0], [0.0, 10.0, 20.0, 30.0]]
        verdict = check_s_fairness(times, curves, s=5.0, origin=1.0)
        assert verdict.violated_from == 2.0
        assert verdict.final_ratio == 10.0

    def test_final_ratio_is_throughput_ratio(self):
        """The last sample's ratio is :func:`throughput_ratio` of the
        rates there: 1 for one flow, 1 for two idle flows."""
        times = [1.0, 2.0]
        assert check_s_fairness(times, [[5.0, 9.0]], s=2.0).final_ratio == 1
        idle = check_s_fairness(times, [[0.0, 0.0], [0.0, 0.0]], s=2.0)
        assert idle.final_ratio == 1.0 and idle.is_s_fair

    def test_no_samples_gives_no_time(self):
        verdict = check_s_fairness([0.0], [[1.0], [2.0]], s=2.0)
        assert math.isnan(verdict.satisfied_from)
        assert math.isnan(verdict.violated_from)

    def test_invalid_s_rejected(self):
        times, curves = self.make_curves([1.0, 1.0])
        with pytest.raises(ValueError):
            check_s_fairness(times, curves, s=0.5)
