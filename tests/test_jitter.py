"""Unit tests for the non-congestive delay (jitter) elements."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.jitter import (AckAggregationJitter, ConstantJitter,
                              ExemptFirstJitter, NoJitter,
                              SquareWaveJitter, StepTraceJitter,
                              TokenBucketJitter)
from repro.sim.packet import Packet

from .conftest import ScriptedJitter


def make_packet(seq=0, size=1500):
    return Packet(flow_id=0, seq=seq, size=size, sent_time=0.0)


def test_no_jitter_passthrough(sim, spy):
    element = NoJitter(sim, spy)
    element.receive(make_packet(), 0.0)
    sim.run_all()
    assert spy.times == [0.0]


def test_constant_jitter_delays_everything(sim, spy):
    element = ConstantJitter(sim, spy, eta=0.01)
    sim.schedule(0.0, element.receive, make_packet(seq=0), 0.0)
    sim.schedule(0.5, element.receive, make_packet(seq=1), 0.5)
    sim.run_all()
    assert spy.times == [pytest.approx(0.01), pytest.approx(0.51)]


def test_negative_constant_jitter_rejected(sim, spy):
    for eta in (-0.001, float("nan")):
        with pytest.raises(ConfigurationError):
            ConstantJitter(sim, spy, eta=eta)


def test_nan_delay_fails_at_the_element(sim, spy):
    # NaN passes an `eta < 0` test; it must not reach the engine as a
    # release time ("cannot schedule event at t=nan").
    element = ScriptedJitter(sim, spy, [float("nan")])
    with pytest.raises(ConfigurationError, match="ScriptedJitter"):
        element.receive(make_packet(), 1.0)
    assert element.forwarded == 0 and not spy.items


def test_no_reordering_invariant(sim, spy):
    """A decreasing jitter schedule must not reorder packets."""
    element = ScriptedJitter(sim, spy, [0.100, 0.001])
    element.receive(make_packet(seq=0), 0.0)
    sim.schedule(0.01, element.receive, make_packet(seq=1), 0.01)
    sim.run_all()
    assert [p.seq for p in spy.packets] == [0, 1]
    assert spy.times[1] >= spy.times[0]


def test_step_trace_jitter(sim, spy):
    element = StepTraceJitter(sim, spy, steps=[(0.0, 0.0), (1.0, 0.05)])
    element.receive(make_packet(seq=0), 0.5)
    element.receive(make_packet(seq=1), 1.5)
    sim.run_all()
    assert spy.times[0] == pytest.approx(0.5)
    assert spy.times[1] == pytest.approx(1.55)


def test_step_trace_edges(sim, spy):
    element = StepTraceJitter(
        sim, spy, steps=[(1.0, 0.01), (2.0, 0.02), (2.0, 0.03)])
    assert element.extra_delay(make_packet(), 0.5) == 0.0   # before any
    assert element.extra_delay(make_packet(), 1.0) == 0.01  # at a step
    assert element.extra_delay(make_packet(), 2.0) == 0.03  # last wins
    assert element.extra_delay(make_packet(), 9.0) == 0.03
    assert StepTraceJitter(sim, spy, steps=[]).extra_delay(
        make_packet(), 1.0) == 0.0


def test_step_trace_long_trace_matches_linear_walk(sim, spy):
    rng = random.Random(5)
    # Coarse times, so the trace is full of equal-time runs.
    times = sorted(round(rng.uniform(0.0, 50.0), 2) for _ in range(5000))
    steps = [(t, rng.uniform(0.0, 0.05)) for t in times]
    element = StepTraceJitter(sim, spy, steps=steps)

    def linear_walk(now):
        eta = 0.0
        for time, value in steps:
            if time > now:
                break
            eta = value
        return eta

    probes = [rng.uniform(-1.0, 51.0) for _ in range(300)] + times[::97]
    for now in probes:
        assert element.extra_delay(make_packet(), now) == linear_walk(now)


@pytest.mark.parametrize("order", ["monotone", "random"])
def test_step_trace_cursor_equals_bisect(sim, spy, order):
    from bisect import bisect_right
    rng = random.Random(11)
    times = sorted(round(rng.uniform(0.0, 20.0), 2) for _ in range(2000))
    steps = [(t, rng.uniform(0.0, 0.05)) for t in times]
    element = StepTraceJitter(sim, spy, steps=steps)
    probes = [rng.uniform(-1.0, 21.0) for _ in range(3000)] + times[::7]
    if order == "monotone":
        # Dense and sparse stretches, repeats and exact step times.
        probes = sorted(probes + probes[:50])
    for now in probes:
        index = bisect_right(times, now)
        expected = steps[index - 1][1] if index else 0.0
        assert element.extra_delay(make_packet(), now) == expected


def test_step_trace_requires_sorted_steps(sim, spy):
    with pytest.raises(ConfigurationError):
        StepTraceJitter(sim, spy, steps=[(1.0, 0.1), (0.5, 0.2)])


def test_square_wave_phases(sim, spy):
    element = SquareWaveJitter(sim, spy, high=0.02, period=1.0, duty=0.5)
    element.receive(make_packet(seq=0), 0.25)   # high half
    element.receive(make_packet(seq=1), 0.75)   # low half
    sim.run_all()
    assert spy.times[0] == pytest.approx(0.27)
    assert spy.times[1] == pytest.approx(0.75)


def test_ack_aggregation_releases_on_boundaries(sim, spy):
    element = AckAggregationJitter(sim, spy, period=0.060)
    element.receive(make_packet(seq=0), 0.010)
    element.receive(make_packet(seq=1), 0.059)
    element.receive(make_packet(seq=2), 0.0601)
    sim.run_all()
    assert spy.times[0] == pytest.approx(0.060)
    assert spy.times[1] == pytest.approx(0.060)
    assert spy.times[2] == pytest.approx(0.120)


def test_ack_aggregation_on_boundary_passes_immediately(sim, spy):
    element = AckAggregationJitter(sim, spy, period=0.060)
    element.receive(make_packet(), 0.060)
    sim.run_all()
    assert spy.times == [pytest.approx(0.060)]


def test_ack_aggregation_bounded_by_period(sim, spy):
    element = AckAggregationJitter(sim, spy, period=0.060)
    for i, t in enumerate([0.001, 0.02, 0.031, 0.059, 0.09]):
        sim.schedule_at(t, element.receive, make_packet(seq=i), t)
    sim.run_all()
    assert element.max_applied <= 0.060 + 1e-12


def test_exempt_first_jitter(sim, spy):
    element = ExemptFirstJitter(sim, spy, eta=0.001, exempt_seqs=[0])
    element.receive(make_packet(seq=0), 0.0)
    sim.run_all()
    element2 = ExemptFirstJitter(sim, spy, eta=0.001, exempt_seqs=[0])
    element2.receive(make_packet(seq=5), 10.0)
    sim.run_all()
    assert spy.times[0] == pytest.approx(0.0)
    assert spy.times[1] == pytest.approx(10.001)


def test_token_bucket_passes_within_burst(sim, spy):
    element = TokenBucketJitter(sim, spy, rate=1000.0, burst=3000.0)
    element.receive(make_packet(size=1500), 0.0)
    element.receive(make_packet(seq=1, size=1500), 0.0)
    sim.run_all()
    assert spy.times == [pytest.approx(0.0), pytest.approx(0.0)]


def test_token_bucket_delays_beyond_burst(sim, spy):
    element = TokenBucketJitter(sim, spy, rate=1000.0, burst=1500.0)
    element.receive(make_packet(size=1500), 0.0)       # uses the burst
    element.receive(make_packet(seq=1, size=1000), 0.0)  # waits 1 s
    sim.run_all()
    assert spy.times[1] == pytest.approx(1.0)


def test_token_bucket_refills_over_time(sim, spy):
    element = TokenBucketJitter(sim, spy, rate=1000.0, burst=1500.0)
    element.receive(make_packet(size=1500), 0.0)
    sim.schedule(2.0, element.receive, make_packet(seq=1, size=1500), 2.0)
    sim.run_all()
    assert spy.times[1] == pytest.approx(2.0)  # refilled during idle


def test_max_applied_tracks_realized_jitter(sim, spy):
    element = ConstantJitter(sim, spy, eta=0.015)
    element.receive(make_packet(), 0.0)
    sim.run_all()
    assert element.max_applied == pytest.approx(0.015)
