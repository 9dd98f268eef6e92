"""Tests for the CCAC-substitute adversarial trace search."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.model.cca import FluidAimd, FluidJitterAware, OscillatingCCA
from repro.model.explorer import (NetParams, TraceStep, exhaustive_search,
                                  guided_search, simulate_trace,
                                  underutilization_objective,
                                  unfairness_objective)

MSS = 1500.0
RM = 0.05
NET = NetParams(link_rate=1.5e6, rm=RM, jitter_bound=0.02,
                buffer_bytes=60 * MSS)


def aimd(packets=10.0):
    """Overflow-only AIMD: ``packets`` per Rm, one more packet per Rm."""
    return FluidAimd(rm=RM, threshold=math.inf, increase=MSS / RM,
                     initial=packets * MSS / RM)


def idle_steps(n, flows=2):
    return [TraceStep(jitters=(0.0,) * flows, losses=(False,) * flows)
            for _ in range(n)]


def held_steps(n, jitters):
    return [TraceStep(jitters=jitters, losses=(False,) * len(jitters))] * n


class TestSimulateTrace:
    def test_deterministic(self):
        steps = idle_steps(20)
        r1 = simulate_trace([aimd(), aimd()], NET, steps)
        r2 = simulate_trace([aimd(), aimd()], NET, steps)
        assert r1.delivered == r2.delivered
        assert r1.queue_history == r2.queue_history

    def test_flows_not_mutated(self):
        flow = aimd(10.0)
        simulate_trace([flow, flow.clone_state()], NET, idle_steps(20))
        assert flow.rate == 10.0 * MSS / RM

    def test_symmetric_flows_stay_symmetric(self):
        result = simulate_trace([aimd(), aimd()], NET, idle_steps(30))
        assert result.throughput_ratio() == pytest.approx(1.0)

    def test_overflow_causes_backoff(self):
        small_buffer = NetParams(link_rate=1.5e6, rm=RM,
                                 jitter_bound=0.02,
                                 buffer_bytes=10 * MSS)
        result = simulate_trace([aimd(200)], small_buffer,
                                idle_steps(10, flows=1))
        # The queue must never exceed the buffer.
        assert max(result.queue_history) <= 10 * MSS + 1e-9

    def test_injected_loss_requires_flag(self):
        lossy_step = [TraceStep(jitters=(0.0,), losses=(True,))] * 10
        no_injection = simulate_trace([aimd()], NET, lossy_step)
        injecting = NetParams(link_rate=1.5e6, rm=RM,
                              jitter_bound=0.02,
                              buffer_bytes=60 * MSS,
                              allow_loss_injection=True)
        with_injection = simulate_trace([aimd()], injecting,
                                        lossy_step)
        assert with_injection.delivered[0] < no_injection.delivered[0]


class TestAimdBoundedUnfairness:
    """Appendix C: no short trace starves AIMD at 1 BDP of buffer when
    losses only come from buffer overflow."""

    def test_exhaustive_short_horizon(self):
        report = exhaustive_search([aimd(5), aimd(5)], NET, horizon=6,
                                   objective=unfairness_objective)
        assert report.exhaustive
        assert report.best_objective < 3.0

    def test_guided_longer_horizon_stays_bounded(self):
        report = guided_search(
            [aimd(5), aimd(5)], NET, horizon=30,
            objective=unfairness_objective, rollouts=40, seed=3)
        assert report.best_objective < 5.0

    def test_unequal_start_recovers(self):
        """AIMD converges toward fairness from a 20:1 imbalance."""
        result = simulate_trace([aimd(2), aimd(40)], NET, idle_steps(200))
        assert result.throughput_ratio() < 4.0


class TestTheorem1Rediscovered:
    """The positive control: two delay-convergent flows whose
    equilibrium oscillation is at most delta = 10 ms. With jitter
    D > 2 * delta the search must find a trace with ratio >= s = 2 (the
    paper's Theorem 1); with D far below delta it must find none."""

    OPEN = dict(link_rate=1.5e6, rm=RM)   # unbounded buffer

    def search(self, jitter_bound, seed):
        flows = [OscillatingCCA(alpha=6000, rm=RM, gamma=0.05,
                                initial=0.75e6) for _ in range(2)]
        assert flows[0].delta_bound() == pytest.approx(0.01)
        net = NetParams(jitter_bound=jitter_bound, **self.OPEN)
        return guided_search(flows, net, horizon=60,
                             objective=unfairness_objective,
                             rollouts=10, seed=seed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_finds_starvation_when_jitter_exceeds_twice_delta(self, seed):
        assert self.search(0.03, seed).best_objective >= 2.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_finds_none_when_jitter_is_small(self, seed):
        assert self.search(0.0005, seed).best_objective < 1.2


class TestJitterAwareSearch:
    """Section 6.3: the search finds no s-fairness violation for
    Algorithm 1 under jitter <= D.

    The buffer is unbounded so that Algorithm 1's map is active: its
    delay band at this rate (~80 ms of queueing) is more than a 60-packet
    buffer holds, and there every flow's trajectory is set by overflow,
    not by the jitter. The flows start from fair share: the additive
    increase is deliberately slow (the paper flags this), so a cold
    start would dominate the horizon regardless of the adversary.
    """

    S = 2.0
    OPEN = NetParams(link_rate=1.5e6, rm=RM, jitter_bound=0.02)

    def make_flows(self):
        return [FluidJitterAware(jitter_bound=0.02, rm=RM, s=self.S,
                                 rmax=0.2, mu_minus=12500.0,
                                 initial=0.75e6)
                for _ in range(2)]

    def test_jitter_reaches_the_cca(self):
        held = simulate_trace(self.make_flows(), self.OPEN,
                              held_steps(400, (0.02, 0.0)))
        # Theorem 1's adversary moves the shares, and Algorithm 1 holds
        # them within s.
        assert 1.5 < held.throughput_ratio() < self.S

    def test_exhaustive_no_gross_violation(self):
        report = exhaustive_search(self.make_flows(), self.OPEN, horizon=6,
                                   objective=unfairness_objective)
        assert report.best_objective < self.S

    def test_guided_no_gross_violation(self):
        report = guided_search(self.make_flows(), self.OPEN, horizon=40,
                               objective=unfairness_objective,
                               rollouts=30, seed=7)
        assert report.best_objective < self.S

    def test_efficiency_maintained_under_adversary(self):
        report = guided_search(self.make_flows(), self.OPEN, horizon=40,
                               objective=underutilization_objective(
                                   self.OPEN),
                               rollouts=30, seed=7)
        # Even the worst trace found leaves utilization above 50%.
        assert report.best_objective < 0.5


class TestSearchMachinery:
    def test_exhaustive_budget_guard(self):
        with pytest.raises(ConfigurationError):
            exhaustive_search([aimd(), aimd()], NET, horizon=20,
                              objective=unfairness_objective,
                              max_traces=1000)

    def test_guided_search_deterministic_per_seed(self):
        flows = [aimd(), aimd()]
        r1 = guided_search(flows, NET, 10, unfairness_objective,
                           rollouts=10, seed=5)
        r2 = guided_search(flows, NET, 10, unfairness_objective,
                           rollouts=10, seed=5)
        assert r1.best_objective == r2.best_objective

    def test_exhaustive_covers_expected_count(self):
        report = exhaustive_search([aimd()], NET, horizon=3,
                                   objective=unfairness_objective)
        # 2 jitter choices, 1 flow, no loss injection: 2^3 traces.
        assert report.traces_evaluated == 8

    @pytest.mark.parametrize("params", [
        dict(link_rate=0.0, rm=RM, jitter_bound=0.02),
        dict(link_rate=math.nan, rm=RM, jitter_bound=0.02),
        dict(link_rate=1.5e6, rm=math.nan, jitter_bound=0.02),
        dict(link_rate=1.5e6, rm=RM, jitter_bound=math.nan),
        dict(link_rate=1.5e6, rm=RM, jitter_bound=-0.01),
    ])
    def test_invalid_net_params_rejected(self, params):
        with pytest.raises(ConfigurationError):
            NetParams(**params)
