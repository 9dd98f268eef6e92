"""Tests for time-series recording (repro.sim.recorder).

Also exercises the issue's trace round-trip contract: a recorded trace
serialized into the result store and fetched back must equal the trace
a fresh live run of the same spec produces.
"""

import pytest

from repro import units
from repro.analysis.harness import ResilientSweep
from repro.spec import CCASpec, ScenarioSpec, single_flow_scenario
from repro.store import ResultStore


@pytest.fixture(scope="module")
def recorder(run):
    return run.scenario.flows[0].recorder


class TestFlowRecorder:
    def test_rtt_series_is_per_ack_and_plausible(self, recorder):
        assert len(recorder.rtt_times) == len(recorder.rtt_values)
        assert len(recorder.rtt_values) > 100
        assert all(v >= units.ms(40) for v in recorder.rtt_values)
        assert list(recorder.rtt_times) == sorted(recorder.rtt_times)

    def test_periodic_samples_aligned(self, recorder):
        n = len(recorder.sample_times)
        assert n == len(recorder.cwnd_values)
        assert n == len(recorder.pacing_values)
        assert n == len(recorder.delivered_values)
        # ~duration / sample_interval samples, first at one interval.
        assert n == pytest.approx(5.0 / recorder.sample_interval, abs=2)
        assert recorder.sample_times[0] == \
            pytest.approx(recorder.sample_interval)

    def test_delivered_is_monotone(self, recorder):
        deltas = [b - a for a, b in zip(recorder.delivered_values,
                                        recorder.delivered_values[1:])]
        assert all(d >= 0 for d in deltas)

    def test_throughput_between_near_link_rate(self, recorder):
        rate = recorder.throughput_between(2.0, 5.0)
        assert rate == pytest.approx(units.mbps(12), rel=0.1)

    def test_goodput_tracks_receiver(self, recorder):
        goodput = recorder.goodput_between(2.0, 5.0)
        assert 0 < goodput <= recorder.throughput_between(2.0, 5.0) * 1.01

    def test_rate_window_edge_cases(self, recorder):
        assert recorder.throughput_between(3.0, 3.0) == 0.0
        assert recorder.throughput_between(4.0, 2.0) == 0.0
        # A window starting before the first sample reads a 0 baseline.
        assert recorder.throughput_between(0.0, 5.0) > 0.0

    def test_rtt_range_after(self, recorder):
        lo, hi = recorder.rtt_range_after(1.0)
        assert units.ms(40) <= lo <= hi
        nan_lo, nan_hi = recorder.rtt_range_after(1e9)
        assert nan_lo != nan_lo and nan_hi != nan_hi

    def test_goodput_without_receiver_is_zero(self):
        from array import array

        from repro.sim.recorder import FlowRecorder

        class _StubSender:
            rtt_times = array("d")      # the sender's own RTT log
            rtt_values = array("d")

        sender = _StubSender()
        rec = FlowRecorder(sender)
        assert rec.rtt_times is sender.rtt_times
        assert rec.goodput_between(0.0, 1.0) == 0.0


class TestQueueRecorder:
    def test_backlog_series(self, run):
        rec = run.scenario.queue_recorder
        assert len(rec.sample_times) == len(rec.backlog_values)
        assert all(v >= 0 for v in rec.backlog_values)
        assert rec.max_backlog() >= rec.mean_backlog() >= 0.0

    def test_empty_recorder_defaults(self):
        from repro.sim.recorder import QueueRecorder

        class _StubQueue:
            backlog_bytes = 0.0

        rec = QueueRecorder(_StubQueue())
        assert rec.max_backlog() == 0.0
        assert rec.mean_backlog() == 0.0


# ----------------------------------------------------------------------
# Store round-trip: recorded trace in, identical trace out.
# ----------------------------------------------------------------------

def _trace_spec():
    return single_flow_scenario(CCASpec("vegas"), rate=units.mbps(12),
                                rm=units.ms(40), seed=7)


def _live_trace(params):
    spec = ScenarioSpec.from_json(params["scenario"])
    result = spec.run(duration=params["duration"],
                      warmup=params["warmup"])
    return result.scenario.flows[0].recorder


def trace_point(params, budget):
    """Worker body returning the recorded trace as plain JSON data."""
    rec = _live_trace(params)
    return {"rtt_times": list(rec.rtt_times),
            "rtt_values": list(rec.rtt_values),
            "sample_times": list(rec.sample_times),
            "cwnd_values": list(rec.cwnd_values),
            "delivered_values": list(rec.delivered_values)}


class TestTraceStoreRoundTrip:
    def test_cached_trace_equals_live_run(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        params = {"scenario": _trace_spec().to_json(), "duration": 3.0,
                  "warmup": 1.0}
        recorded = ResilientSweep(trace_point, store=store).run(
            [("t", params)])
        assert recorded.misses == 1
        fetched = ResilientSweep(trace_point, store=store).run(
            [("t", params)])
        assert fetched.hits == 1
        # The store's JSON round-trip must be exact, not approximate.
        assert fetched.completed == recorded.completed
        cached = fetched.completed["t"]
        # And a fresh live run of the same seeded spec agrees exactly —
        # the cache is indistinguishable from simulating.
        live = _live_trace(params)
        assert cached["rtt_values"] == list(live.rtt_values)
        assert cached["sample_times"] == list(live.sample_times)
        assert cached["cwnd_values"] == list(live.cwnd_values)
        assert cached["delivered_values"] == \
            list(live.delivered_values)
