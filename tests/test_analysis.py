"""Tests for the analysis package: sweeps, reporting."""

from repro import units
from repro.analysis.report import (describe_run, flow_table,
                                   format_table, rate_delay_ascii)
from repro.analysis.sweep import (RateDelayCurve, RateDelayPoint,
                                  sweep_rate_delay)
from repro.sim.runner import FlowStats


def make_stats(tput_mbps=6.0, label="f", rtt=0.05, losses=0):
    return FlowStats(flow_id=0, label=label,
                     throughput=units.mbps(tput_mbps),
                     goodput=units.mbps(tput_mbps), mean_rtt=rtt,
                     min_rtt=rtt, max_rtt=rtt, losses=losses,
                     retransmits=0, timeouts=0, share=0.5)


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = table.split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_flow_table_contains_throughput(self):
        table = flow_table([make_stats(6.0, label="vegas")])
        assert "vegas" in table
        assert "6.00" in table

    def test_describe_run_smoke(self, run):
        text = describe_run("vegas single", run,
                            paper_numbers="n/a")
        assert "vegas single" in text
        assert "utilization" in text
        # One flow is s-fair at every level, from the window's start.
        assert text.splitlines()[-1].startswith(
            "  Definition 2: s=2 fair from ")

    def test_rate_delay_ascii_render(self):
        curve = RateDelayCurve(label="test", rm=0.1, points=[
            RateDelayPoint(units.mbps(1), 0.11, 0.13, units.mbps(0.9)),
            RateDelayPoint(units.mbps(10), 0.101, 0.105, units.mbps(9.5)),
        ])
        art = rate_delay_ascii(curve)
        assert "test" in art
        assert "#" in art


class TestSweep:
    def test_sweep_vegas_produces_decreasing_dmax(self):
        curve = sweep_rate_delay("vegas", [2.0, 8.0, 32.0],
                                 rm=units.ms(50), duration=15.0)
        d_maxes = [p.d_max for p in curve.points]
        assert d_maxes[0] > d_maxes[-1]
        assert curve.worst_utilization() > 0.8
        assert all(p.d_min >= units.ms(50) for p in curve.points)

    def test_summarize_run_keys(self, run):
        digest = run.summary()
        assert set(digest) >= {"throughputs_mbps", "ratio",
                               "utilization", "losses"}
