"""Tests for the analysis package: metrics, sweeps, reporting."""


import pytest

from repro import units
from repro.analysis.metrics import (loss_rate, queueing_delay_ms,
                                    throughputs_mbps, utilization)
from repro.analysis.report import (comparison_line, describe_run,
                                   flow_table, format_table,
                                   rate_delay_ascii)
from repro.analysis.sweep import (RateDelayCurve, RateDelayPoint,
                                  log_rate_grid, sweep_rate_delay)
from repro.ccas.vegas import Vegas
from repro.sim.runner import FlowStats


def make_stats(tput_mbps=6.0, label="f", rtt=0.05, losses=0):
    return FlowStats(flow_id=0, label=label,
                     throughput=units.mbps(tput_mbps),
                     goodput=units.mbps(tput_mbps), mean_rtt=rtt,
                     min_rtt=rtt, max_rtt=rtt, losses=losses,
                     retransmits=0, timeouts=0, share=0.5)


class TestMetrics:
    def test_utilization(self):
        stats = [make_stats(3.0), make_stats(6.0)]
        assert utilization(stats, units.mbps(12)) == pytest.approx(0.75)

    def test_throughputs_mbps_roundtrip(self):
        stats = [make_stats(3.25)]
        assert throughputs_mbps(stats) == [pytest.approx(3.25)]

    def test_loss_rate(self):
        stats = make_stats(tput_mbps=1.2, losses=10)  # 100 pkts/s
        assert loss_rate(stats, duration=1.0) == pytest.approx(
            10 / 110, rel=1e-6)

    def test_queueing_delay_ms(self):
        stats = make_stats(rtt=0.055)
        assert queueing_delay_ms(stats, rm=0.050) == pytest.approx(5.0)


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

    def test_comparison_line(self):
        line = comparison_line("Fig 7", "2.7x", "2.4x", verdict="OK")
        assert "paper 2.7x" in line
        assert "[OK]" in line

    def test_describe_run_smoke(self, run):
        text = describe_run("vegas single", run,
                            paper_numbers="n/a")
        assert "vegas single" in text
        assert "utilization" in text

    def test_rate_delay_ascii_render(self):
        curve = RateDelayCurve(label="test", rm=0.1, points=[
            RateDelayPoint(units.mbps(1), 0.11, 0.13, units.mbps(0.9)),
            RateDelayPoint(units.mbps(10), 0.101, 0.105, units.mbps(9.5)),
        ])
        art = rate_delay_ascii(curve)
        assert "test" in art
        assert "#" in art


class TestSweep:
    def test_log_grid_spans_range(self):
        grid = log_rate_grid(0.1, 100.0, points=4)
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(100.0)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)

    def test_sweep_vegas_produces_decreasing_dmax(self):
        curve = sweep_rate_delay(Vegas, [2.0, 8.0, 32.0],
                                 rm=units.ms(50), label="vegas",
                                 duration=15.0)
        d_maxes = [p.d_max for p in curve.points]
        assert d_maxes[0] > d_maxes[-1]
        assert curve.worst_utilization() > 0.8
        assert all(p.d_min >= units.ms(50) for p in curve.points)

    def test_summarize_run_keys(self, run):
        digest = run.summary()
        assert set(digest) >= {"throughputs_mbps", "ratio",
                               "utilization", "losses"}
