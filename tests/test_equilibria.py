"""Tests of the paper's closed-form equilibria (Sections 5.1-5.2).

The paper derives, for n flows on a link of rate C with propagation
RTT Rm:

* Vegas/FAST:       RTT* = Rm + n * alpha / C
* BBR (cwnd-lim.):  RTT* = 2*Rm + n * alpha / C   (the +quanta anchor)
* Copa:             queueing ~ n / (delta * C) packets

These tests run 1, 2, and 4 flows in the packet simulator and check the
measured equilibrium against the formulas.
"""

import pytest

from repro import units
from repro.spec import ElementSpec

from .conftest import flow, run_dumbbell

RATE = units.mbps(24)
RM = units.ms(40)
MSS = 1500
VEGAS = {"alpha": 2.0, "beta": 4.0}
ORACLE = {**VEGAS, "base_rtt": RM}


def run_n(cca, params, n, duration=25.0):
    return run_dumbbell([flow(cca, RM, params) for _ in range(n)], RATE,
                        duration, duration * 0.6)


class TestVegasEquilibrium:
    """Formula verification uses the Rm oracle: with estimated min-RTT,
    later flows absorb others' queueing into their baseline (the classic
    Vegas base-RTT unfairness, covered elsewhere) and the clean
    n*alpha/C scaling is obscured."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_rtt_scales_with_flow_count(self, n):
        # alpha..beta = 2..4 packets per flow -> total queue in
        # [2n, (4+1)n] packets (+1 per flow for in-flight rounding).
        result = run_n("vegas", ORACLE, n)
        mean_rtt = sum(s.mean_rtt for s in result.stats) / n
        queue_packets = (mean_rtt - RM) * RATE / MSS
        assert 1.5 * n <= queue_packets <= 6.0 * n
        assert result.utilization() > 0.9

    def test_two_vs_four_flows_double_the_queue(self):
        r2 = run_n("vegas", ORACLE, 2)
        r4 = run_n("vegas", ORACLE, 4)
        q2 = (sum(s.mean_rtt for s in r2.stats) / 2) - RM
        q4 = (sum(s.mean_rtt for s in r4.stats) / 4) - RM
        assert q4 == pytest.approx(2 * q2, rel=0.5)

    def test_estimated_min_rtt_inflates_late_flows_queues(self):
        """Without the oracle, 4 flows keep substantially MORE than
        4*alpha queued — the base-RTT inflation the paper's Section 5.1
        points at ("underestimate ... overestimate" asymmetries)."""
        oracle = run_n("vegas", ORACLE, 4)
        estimated = run_n("vegas", VEGAS, 4)
        q_oracle = (sum(s.mean_rtt for s in oracle.stats) / 4) - RM
        q_estimated = (sum(s.mean_rtt for s in estimated.stats) / 4) - RM
        assert q_estimated > 1.5 * q_oracle


class TestFastEquilibrium:
    @pytest.mark.parametrize("n", [1, 2])
    def test_queue_is_n_alpha_packets(self, n):
        result = run_n("fast", {"alpha": 4.0}, n)
        mean_rtt = sum(s.mean_rtt for s in result.stats) / n
        queue_packets = (mean_rtt - RM) * RATE / MSS
        assert queue_packets == pytest.approx(4.0 * n, rel=0.6)


class TestBbrCwndLimitedEquilibrium:
    """Section 5.2: cwnd = 2*bw*Rm + alpha per flow; at the fixed point
    the RTT is 2*Rm + n*alpha/C. We force cwnd-limited mode via ACK
    aggregation jitter (max-filter overestimation) as the paper
    describes."""

    def run_bbr(self, n, duration=40.0):
        aggregation = ElementSpec("ack_aggregation", {"period": units.ms(4)})
        flows = [flow("bbr", RM, {"seed": i + 1}, ack_elements=[aggregation])
                 for i in range(n)]
        return run_dumbbell(flows, RATE, duration, duration * 0.5,
                            buffer_bdp=8.0)

    def test_single_flow_stays_pacing_limited(self):
        """A lone flow's max filter cannot overestimate much (its own
        delivery rate is the link rate), so it stays pacing-limited
        with RTT near Rm — the precondition for the paper's "some other
        source of jitter may be necessary to break BBR"."""
        result = self.run_bbr(1)
        stats = result.stats[0]
        assert stats.mean_rtt < 1.5 * RM
        assert result.utilization() > 0.85

    def test_two_flows_sit_at_twice_rm(self):
        """The distinguishing prediction of the Section 5.2 fixed-point
        analysis: in cwnd-limited mode the standing RTT is
        2*Rm + n*alpha/C — a whole extra Rm of queueing that
        Vegas/FAST/Copa do not keep."""
        result = self.run_bbr(2)
        for stats in result.stats:
            assert 1.7 * RM < stats.mean_rtt < 2.8 * RM
        assert result.utilization() > 0.85
        assert result.throughput_ratio() < 1.5


class TestCopaEquilibrium:
    @pytest.mark.parametrize("n", [1, 2])
    def test_queue_scales_with_1_over_delta(self, n):
        result = run_n("copa", {"delta": 0.5}, n, duration=30.0)
        mean_rtt = sum(s.mean_rtt for s in result.stats) / n
        queue_packets = (mean_rtt - RM) * RATE / MSS
        # ~2/delta + oscillation per flow.
        assert queue_packets < 14.0 * n
        assert result.utilization() > 0.85

    def test_smaller_delta_keeps_more_queue(self):
        gentle = run_n("copa", {"delta": 0.25}, 1, duration=30.0)
        aggressive = run_n("copa", {"delta": 1.0}, 1, duration=30.0)
        q_gentle = gentle.stats[0].mean_rtt - RM
        q_aggr = aggressive.stats[0].mean_rtt - RM
        assert q_gentle > q_aggr


class TestIntroMotivation:
    """Section 1: delay-bounding CCAs historically could not compete
    with buffer-filling CCAs — the reason the field stagnated after
    Vegas/FAST. Verify the classic phenomenon in our simulator."""

    def test_vegas_starves_against_reno(self):
        result = run_dumbbell([flow("vegas", RM), flow("reno", RM)], RATE,
                              duration=40.0, warmup=15.0, buffer_bdp=2.0)
        vegas_share = result.stats[0].throughput
        reno_share = result.stats[1].throughput
        # Reno fills the buffer; Vegas sees the delay and yields.
        assert reno_share > 3.0 * vegas_share

    def test_bbr_competes_with_reno(self):
        """BBR was designed to fix that; it holds a healthy share."""
        result = run_dumbbell(
            [flow("bbr", RM, {"seed": 1}), flow("reno", RM)], RATE,
            duration=40.0, warmup=15.0, buffer_bdp=2.0)
        bbr_share = result.stats[0].throughput / RATE
        assert bbr_share > 0.2
