"""Tests for the fluid-flow network model and fluid CCAs."""

import math

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.model.cca import (FluidAimd, FluidJitterAware, OscillatingCCA,
                             WindowTargetCCA)
from repro.model.fluid import run_ideal_path, run_shared_queue
from repro.spec import ElementSpec

RM = 0.05
C = units.mbps(12)
NO_JITTER = ElementSpec("no_jitter")


def constant(eta):
    return ElementSpec("constant_jitter", {"eta": eta})


class ConstantRateCCA:
    """Sends at a fixed rate regardless of feedback."""

    def __init__(self, rate):
        self.rate = rate

    def initial_rate(self):
        return self.rate

    def step(self, t, dt, observed_rtt):
        return self.rate


class TestQueueDynamics:
    def test_underload_keeps_delay_at_rm(self):
        traj = run_ideal_path(ConstantRateCCA(C / 2), C, RM, 2.0)
        assert np.allclose(traj.delays, RM)

    def test_overload_grows_queue_linearly(self):
        traj = run_ideal_path(ConstantRateCCA(2 * C), C, RM, 1.0)
        # dq/dt = (r - C)/C = 1: after 1 s, ~1 s of queueing delay.
        assert traj.delays[-1] == pytest.approx(RM + 1.0, rel=0.01)

    def test_queue_drains_but_not_below_empty(self):
        class BurstThenIdle:
            def initial_rate(self):
                return 4 * C

            def step(self, t, dt, observed_rtt):
                return 0.0 if t > 0.5 else 4 * C

        traj = run_ideal_path(BurstThenIdle(), C, RM, 5.0)
        assert traj.delays[-1] == pytest.approx(RM)
        assert (traj.delays >= RM - 1e-12).all()

    def test_jitter_added_to_observation_only(self):
        traj = run_ideal_path(ConstantRateCCA(C / 2), C, RM, 1.0,
                              jitter=constant(0.01))
        assert np.allclose(traj.delays, RM + 0.01)

    @pytest.mark.parametrize("spec", [
        ElementSpec("exempt_first_jitter", {"eta": 0.01,
                                            "exempt_seqs": [0]}),
        ElementSpec("token_bucket", {"rate": 1e6, "burst": 3000.0}),
    ], ids=lambda spec: spec.kind)
    def test_packet_dependent_jitter_rejected(self, spec):
        """A fluid run has no packets: a kind whose delay depends on
        them is refused by name, in both entry points."""
        with pytest.raises(ConfigurationError, match=spec.kind):
            run_ideal_path(ConstantRateCCA(C / 2), C, RM, 1.0, jitter=spec)
        with pytest.raises(ConfigurationError, match=spec.kind):
            run_shared_queue([ConstantRateCCA(C / 2)], C, RM, 1.0,
                             etas=[spec])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            run_ideal_path(ConstantRateCCA(C), 0.0, RM, 1.0)
        with pytest.raises(ConfigurationError):
            run_ideal_path(ConstantRateCCA(C), C, -1.0, 1.0)


class TestTrajectory:
    def test_throughput_is_mean_rate(self):
        traj = run_ideal_path(ConstantRateCCA(C / 2), C, RM, 2.0)
        assert traj.throughput() == pytest.approx(C / 2)

    def test_shift_moves_origin(self):
        traj = run_ideal_path(ConstantRateCCA(C / 2), C, RM, 2.0)
        shifted = traj.shifted(1.0)
        assert shifted.times[0] == pytest.approx(0.0)
        assert len(shifted.times) == pytest.approx(len(traj.times) / 2,
                                                   abs=2)

    def test_delay_range(self):
        traj = run_ideal_path(ConstantRateCCA(2 * C), C, RM, 1.0)
        lo, hi = traj.delay_range(0.5)
        assert lo < hi
        assert hi == pytest.approx(traj.delays[-1])


class TestWindowTargetCCA:
    def test_converges_to_pedestal_plus_alpha_over_c(self):
        cca = WindowTargetCCA(alpha=6000.0, rm=RM, pedestal=0.04,
                              initial=C / 2)
        traj = run_ideal_path(cca, C, RM, 30.0)
        expected = RM + 0.04 + 6000.0 / C
        assert traj.delays[-1] == pytest.approx(expected, rel=0.02)

    def test_converges_from_above_and_below(self):
        for initial in [C / 10, 5 * C]:
            cca = WindowTargetCCA(alpha=6000.0, rm=RM, pedestal=0.04,
                                  initial=initial)
            traj = run_ideal_path(cca, C, RM, 30.0)
            assert traj.rates[-1] == pytest.approx(C, rel=0.02)

    def test_full_utilization(self):
        cca = WindowTargetCCA(initial=C / 2, rm=RM)
        traj = run_ideal_path(cca, C, RM, 30.0)
        assert traj.throughput(15.0) == pytest.approx(C, rel=0.02)

    def test_self_clocking_backs_off_under_delay(self):
        """Rate = w/d drops immediately when observed delay jumps."""
        cca = WindowTargetCCA(initial=C, rm=RM)
        r1 = cca.step(0.0, 1e-3, RM + 0.01)
        r2 = cca.step(1e-3, 1e-3, RM + 0.10)
        assert r2 < r1

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            WindowTargetCCA(alpha=0.0)
        with pytest.raises(ConfigurationError):
            WindowTargetCCA(kappa=-1.0)


class TestOscillatingCCA:
    def test_converges_to_bounded_cycle(self):
        cca = OscillatingCCA(alpha=6000.0, rm=RM, gamma=0.05,
                             initial=C / 2)
        traj = run_ideal_path(cca, C, RM, 30.0)
        tail = traj.delays[traj.times > 20.0]
        assert tail.max() - tail.min() < 6 * 0.05 * RM
        assert traj.throughput(20.0) > 0.8 * C

    def test_oscillation_is_nonzero(self):
        cca = OscillatingCCA(alpha=6000.0, rm=RM, gamma=0.05,
                             initial=C / 2)
        traj = run_ideal_path(cca, C, RM, 30.0)
        tail_rates = traj.rates[traj.times > 20.0]
        assert tail_rates.max() > tail_rates.min() * 1.01


class TestFluidAimd:
    def test_sawtooth_behavior(self):
        cca = FluidAimd(rm=RM, threshold=0.02, initial=C / 2)
        traj = run_ideal_path(cca, C, RM, 20.0)
        tail = traj.delays[traj.times > 10.0]
        # AIMD oscillates over a range comparable to the threshold.
        assert tail.max() - tail.min() > 0.005
        assert traj.throughput(10.0) > 0.5 * C

    def test_loss_backs_off_at_most_once_per_rm(self):
        cca = FluidAimd(rm=RM, threshold=math.inf, initial=C)
        cca.on_loss(1.0)
        cca.on_loss(1.0 + RM / 2)
        assert cca.rate == C / 2
        cca.on_loss(1.0 + RM)
        assert cca.rate == C / 4


class TestFluidJitterAware:
    def test_updates_once_per_rm(self):
        cca = FluidJitterAware(jitter_bound=0.01, rm=RM,
                               mu_minus=units.kbps(100))
        r0 = cca.step(0.0, 1e-3, RM)
        r_same_epoch = cca.step(0.01, 1e-3, RM)
        assert r_same_epoch == r0
        r_next = cca.step(RM + 1e-6, 1e-3, RM)
        assert r_next != r0 or True  # may coincide; just must not error

    def test_converges_near_capacity_within_rate_range(self):
        cca = FluidJitterAware(jitter_bound=0.01, rm=RM, s=2.0, rmax=0.1,
                               mu_minus=units.kbps(100))
        small_c = units.mbps(2)
        traj = run_ideal_path(cca, small_c, RM, 60.0)
        assert traj.throughput(40.0) > 0.6 * small_c

    def test_loss_decreases_down_to_the_packet_floor(self):
        # ccas/jitteraware.py: MD on loss, never below mu_minus * b.
        cca = FluidJitterAware(jitter_bound=0.01, rm=RM,
                               mu_minus=units.kbps(100), initial=C)
        cca.on_loss(0.0)
        assert cca.rate == pytest.approx(0.9 * C)
        for _ in range(200):
            cca.on_loss(0.0)
        assert cca.rate == pytest.approx(0.9 * units.kbps(100))


class TestFluidCCAInterface:
    def test_loss_is_ignored_by_default_and_clones_are_independent(self):
        cca = OscillatingCCA(rm=RM, initial=C)
        cca.on_loss(0.0)
        assert cca.rate == C
        clone = cca.clone_state()
        clone.step(0.0, RM, RM)
        assert clone.rate != C and cca.rate == C


class TestSharedQueue:
    def test_two_constant_flows_fill_shared_queue(self):
        result = run_shared_queue(
            [ConstantRateCCA(C), ConstantRateCCA(C)],
            link_rate=1.5 * C, rm=RM, duration=1.0,
            etas=[NO_JITTER, NO_JITTER])
        # arrival 2C on 1.5C: dq/dt = 0.5C/1.5C = 1/3.
        assert result.shared_delay[-1] == pytest.approx(RM + 1 / 3.0,
                                                        rel=0.02)

    def test_per_flow_jitter_observed_independently(self):
        result = run_shared_queue(
            [ConstantRateCCA(C / 4), ConstantRateCCA(C / 4)],
            link_rate=C, rm=RM, duration=1.0,
            etas=[NO_JITTER, constant(0.02)])
        assert np.allclose(result.observed_delays[0], RM)
        assert np.allclose(result.observed_delays[1], RM + 0.02)

    def test_initial_queue_delay_respected(self):
        result = run_shared_queue(
            [ConstantRateCCA(C)], link_rate=C, rm=RM, duration=1.0,
            etas=[NO_JITTER], initial_queue_delay=0.1)
        # arrival == drain: queue stays at its initial level.
        assert np.allclose(result.shared_delay, RM + 0.1)

    def test_mismatched_etas_rejected(self):
        with pytest.raises(ConfigurationError):
            run_shared_queue([ConstantRateCCA(C)], C, RM, 1.0, etas=[])

    def test_throughput_ratio(self):
        result = run_shared_queue(
            [ConstantRateCCA(C / 4), ConstantRateCCA(C / 2)],
            link_rate=C, rm=RM, duration=1.0,
            etas=[NO_JITTER, NO_JITTER])
        assert result.throughput_ratio() == pytest.approx(2.0)
        # No flow sent anything: 1.0, as core.fairness and RunResult say.
        idle = run_shared_queue(
            [ConstantRateCCA(0.0), ConstantRateCCA(0.0)],
            link_rate=C, rm=RM, duration=1.0,
            etas=[NO_JITTER, NO_JITTER])
        assert idle.throughput_ratio() == 1.0
