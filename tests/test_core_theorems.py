"""Integration tests for the Theorem 1/2/3 constructions.

These are the paper's central results, exercised end to end on the
fluid model: build the adversary, run it, and check that starvation (or
under-utilization) actually materializes.
"""


import numpy as np
import pytest

from repro.core.emulation import verify_shared_delay
from repro.core.pigeonhole import find_pigeonhole_pair
from repro.core.convergence import measure_converged_range
from repro.core.theorems import (construct_starvation,
                                 construct_strong_model_starvation,
                                 construct_underutilization)
from repro.errors import (ConvergenceError, EmulationInfeasibleError)
from repro.model.cca import OscillatingCCA, WindowTargetCCA
from repro.model.fluid import run_ideal_path

RM = 0.05


def pedestal_factory(initial_rate):
    return WindowTargetCCA(alpha=6000.0, rm=RM, pedestal=0.04,
                           kappa=1.0, initial=initial_rate)


def vegas_like_factory(initial_rate):
    return OscillatingCCA(alpha=6000.0, rm=RM, gamma=0.05,
                          initial=initial_rate)


class TestPigeonhole:
    def test_finds_pair_with_rate_ratio_at_least_s_over_f(self):
        cache = {}

        def measure(rate):
            if rate not in cache:
                traj = run_ideal_path(pedestal_factory(rate / 2), rate,
                                      RM, 30.0)
                cache[rate] = measure_converged_range(traj)
            return cache[rate]

        pair = find_pigeonhole_pair(measure, lam=1.2e6, s=10.0, f=0.5,
                                    epsilon=0.002, rm=RM,
                                    d_max_bound=0.15)
        assert pair.rate_ratio >= 10.0 / 0.5 - 1e-9
        assert abs(pair.c1.d_max - pair.c2.d_max) < 0.002
        assert pair.common_width() <= 0.002 + max(pair.c1.delta,
                                                  pair.c2.delta)

    def test_parameter_validation(self):
        measure = lambda rate: None
        with pytest.raises(ValueError):
            find_pigeonhole_pair(measure, 1e6, s=0.5, f=0.5,
                                 epsilon=0.01, rm=RM, d_max_bound=1.0)
        with pytest.raises(ValueError):
            find_pigeonhole_pair(measure, 1e6, s=2.0, f=0.5,
                                 epsilon=0.0, rm=RM, d_max_bound=1.0)


class TestTheorem1Case1:
    @pytest.fixture(scope="class")
    def construction(self):
        return construct_starvation(pedestal_factory, rm=RM, s=10.0,
                                    f=0.5, delta_max=0.002, lam=1.2e6,
                                    duration=40.0, emulate_duration=10.0)

    def test_case_1_applies(self, construction):
        assert construction.case == 1

    def test_starvation_achieved(self, construction):
        assert construction.starved
        assert construction.achieved_ratio >= 10.0

    def test_jitter_within_bounds(self, construction):
        plan = construction.plan
        assert plan.min_eta >= -1e-9
        assert plan.max_eta <= construction.jitter_bound + 1e-9

    def test_equation_5_consistency(self, construction):
        deviation = verify_shared_delay(
            construction.plan, construction.traj1, construction.traj2,
            construction.pair.c1.t_converged,
            construction.pair.c2.t_converged, tolerance=1e-2)
        assert deviation < 1e-2

    def test_initial_queue_nonnegative(self, construction):
        assert construction.plan.initial_queue_delay >= 0

    def test_flows_track_their_single_flow_rates(self, construction):
        """The heart of the proof: in the 2-flow run each flow sends at
        (approximately) its single-flow rate trajectory."""
        two = construction.two_flow
        c1 = construction.pair.c1.link_rate
        c2 = construction.pair.c2.link_rate
        tputs = sorted(two.throughputs())
        assert tputs[0] == pytest.approx(c1, rel=0.1)
        assert tputs[1] == pytest.approx(c2, rel=0.1)


class TestTheorem1Case2:
    @pytest.fixture(scope="class")
    def construction(self):
        return construct_starvation(vegas_like_factory, rm=RM, s=10.0,
                                    f=0.5, delta_max=4 * 0.05 * RM,
                                    duration=30.0, emulate_duration=8.0)

    def test_case_2_applies(self, construction):
        assert construction.case == 2

    def test_starvation_achieved(self, construction):
        assert construction.starved

    def test_jitter_within_bounds(self, construction):
        plan = construction.plan
        assert plan.min_eta >= -1e-9
        assert plan.max_eta <= construction.jitter_bound + 1e-9


class TestTheorem1Validation:
    def test_d_too_small_rejected(self):
        with pytest.raises(ConvergenceError):
            construct_starvation(pedestal_factory, rm=RM, s=10.0, f=0.5,
                                 delta_max=0.01, jitter_bound=0.015,
                                 lam=1.2e6, duration=20.0)


class TestTheorem2:
    def test_underutilization_grows_with_rate_factor(self):
        results = []
        for factor in [10.0, 100.0]:
            con = construct_underutilization(
                lambda: WindowTargetCCA(alpha=6000.0, rm=RM,
                                        pedestal=0.04, initial=0.6e6),
                small_rate=1.2e6, rm=RM, jitter_bound=0.05,
                big_rate_factor=factor, duration=20.0)
            results.append(con.utilization)
        assert results[0] == pytest.approx(0.1, rel=0.15)
        assert results[1] == pytest.approx(0.01, rel=0.15)

    def test_emulated_run_replays_the_small_link_exactly(self):
        """Theorem 2's premise, executed: a deterministic CCA that sees
        the same delays sends the same way. The fast link's emulated run
        reproduces the small link's trajectory float for float."""
        con = construct_underutilization(
            lambda: WindowTargetCCA(alpha=6000.0, rm=0.05, pedestal=0.04,
                                    initial=0.6e6),
            small_rate=1.2e6, rm=0.05, jitter_bound=0.05,
            big_rate_factor=100, duration=25)
        assert np.array_equal(con.emulated.delays, con.trajectory.delays)
        assert np.array_equal(con.emulated.rates, con.trajectory.rates)

    def test_premise_violation_detected(self):
        """A CCA whose queueing exceeds D does not satisfy Theorem 2."""
        with pytest.raises(EmulationInfeasibleError):
            construct_underutilization(
                lambda: WindowTargetCCA(alpha=6000.0, rm=RM,
                                        pedestal=0.2, initial=0.6e6),
                small_rate=1.2e6, rm=RM, jitter_bound=0.05,
                duration=20.0)


class TestTheorem3:
    def test_strong_model_starves_delay_bounded_cca(self):
        con = construct_strong_model_starvation(
            lambda: WindowTargetCCA(alpha=6000.0, rm=RM, pedestal=0.04,
                                    initial=0.6e6),
            base_rate=1.2e6, rm=RM, s=5.0, duration=20.0)
        assert con.starved
        assert con.ratio >= 5.0
        assert con.jitter_bound > 0
        assert len(con.traces) >= 2
