"""Edge-case tests for runner.summarize and RunResult.

These lock down the degenerate windows a sweep can produce: flows that
never delivered a byte, measurement windows that exclude the whole run,
and single-flow scenarios.
"""

import math

import pytest

from repro import units
from repro.sim.runner import FlowStats, RunResult, summarize
from repro.spec import CCASpec, FlowSpec, LinkSpec, ScenarioSpec

RM = units.ms(40)


def run_vegas(*start_times, **run_kwargs):
    """Vegas flows (one per start time, default one at 0) on 5 Mbit/s."""
    flows = [FlowSpec(cca=CCASpec("vegas"), rm=RM, start_time=start)
             for start in start_times or (0.0,)]
    return ScenarioSpec(link=LinkSpec(rate=units.mbps(5)),
                        flows=flows).run(**run_kwargs)


def make_stats(**overrides):
    defaults = dict(flow_id=0, label="f", throughput=1.0, goodput=1.0,
                    mean_rtt=0.05, min_rtt=0.04, max_rtt=0.06,
                    losses=0, retransmits=0, timeouts=0)
    defaults.update(overrides)
    return FlowStats(**defaults)


def result_with_throughputs(*tputs):
    stats = [make_stats(flow_id=i, throughput=t)
             for i, t in enumerate(tputs)]
    return RunResult(scenario=None, stats=stats, duration=10.0,
                     warmup=0.0)


class TestThroughputRatio:
    def test_zero_throughput_flow_gives_infinite_ratio(self):
        # A fully starved flow is "infinitely" unfair, not a crash.
        assert result_with_throughputs(5e6, 0.0).throughput_ratio() \
            == math.inf

    def test_single_flow_ratio_is_one(self):
        assert result_with_throughputs(5e6).throughput_ratio() == 1.0

    def test_single_zero_flow_ratio_is_one(self):
        assert result_with_throughputs(0.0).throughput_ratio() == 1.0

    def test_two_flow_ratio(self):
        assert result_with_throughputs(2e6, 1e6).throughput_ratio() \
            == pytest.approx(2.0)

    def test_ratio_is_order_independent(self):
        assert result_with_throughputs(1e6, 4e6).throughput_ratio() == \
            result_with_throughputs(4e6, 1e6).throughput_ratio()


class TestSummarizeWindows:
    def test_single_flow_share_is_one(self):
        result = run_vegas(duration=3.0, warmup=1.0)
        assert result.stats[0].share == pytest.approx(1.0)

    def test_warmup_equal_to_duration_empty_window(self):
        # The whole run is "warmup": no bytes, no RTT samples, no
        # crash. Shares stay 0 (nothing delivered in the window).
        result = run_vegas(duration=3.0, warmup=3.0)
        stat = result.stats[0]
        assert stat.throughput == 0.0
        assert math.isnan(stat.mean_rtt)
        assert math.isnan(stat.min_rtt)
        assert stat.share == 0.0
        assert result.throughput_ratio() == 1.0

    def test_warmup_beyond_duration_empty_window(self):
        result = run_vegas(duration=2.0, warmup=5.0)
        assert result.stats[0].throughput == 0.0

    def test_flow_starting_after_window_has_zero_throughput(self):
        # Flow 1 starts after the horizon: zero bytes, but flow 0's
        # share still normalizes over delivered traffic only.
        result = run_vegas(0.0, 100.0, duration=3.0, warmup=1.0)
        late = result.stats[1]
        assert late.throughput == 0.0
        assert result.stats[0].share == pytest.approx(1.0)
        assert late.share == 0.0
        assert result.throughput_ratio() == math.inf

    def test_rtt_range_property(self):
        stat = make_stats(min_rtt=0.04, max_rtt=0.06)
        assert stat.rtt_range == (0.04, 0.06)

    def test_summarize_restricts_rtt_to_window(self):
        result = run_vegas(duration=4.0)
        scenario = result.scenario
        full = summarize(scenario, duration=4.0, warmup=0.0)[0]
        tail = summarize(scenario, duration=4.0, warmup=3.0)[0]
        # The tail window (steady state) can only narrow the RTT range.
        assert tail.min_rtt >= full.min_rtt
        assert tail.max_rtt <= full.max_rtt
