"""Unit tests for the bottleneck FIFO queue."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.packet import Packet
from repro.sim.queue import BottleneckQueue


def make_packet(flow=0, seq=0, size=1000):
    return Packet(flow_id=flow, seq=seq, size=size, sent_time=0.0)


def test_single_packet_transmission_time(sim, spy):
    queue = BottleneckQueue(sim, rate=1000.0)  # 1000 B/s
    queue.register_sink(0, spy)
    queue.receive(make_packet(size=500), 0.0)
    sim.run_all()
    assert spy.times == [pytest.approx(0.5)]


def test_fifo_order_across_flows(sim, spy):
    queue = BottleneckQueue(sim, rate=1000.0)
    queue.register_sink(0, spy)
    queue.register_sink(1, spy)
    queue.receive(make_packet(flow=0, seq=0), 0.0)
    queue.receive(make_packet(flow=1, seq=0), 0.0)
    queue.receive(make_packet(flow=0, seq=1), 0.0)
    sim.run_all()
    assert [(p.flow_id, p.seq) for p in spy.packets] == [
        (0, 0), (1, 0), (0, 1)]


def test_queueing_delay_accumulates(sim, spy):
    queue = BottleneckQueue(sim, rate=1000.0)
    queue.register_sink(0, spy)
    for i in range(3):
        queue.receive(make_packet(seq=i, size=1000), 0.0)
    sim.run_all()
    assert spy.times == [pytest.approx(1.0), pytest.approx(2.0),
                         pytest.approx(3.0)]


def test_droptail_drops_when_full(sim, spy):
    # Buffer holds 2 waiting packets of 1000 B; the first packet enters
    # service immediately, so 3 are admitted and the 4th drops.
    queue = BottleneckQueue(sim, rate=1000.0, buffer_bytes=2000.0)
    queue.register_sink(0, spy)
    for i in range(4):
        queue.receive(make_packet(seq=i, size=1000), 0.0)
    sim.run_all()
    assert queue.drops == 1
    assert [p.seq for p in spy.packets] == [0, 1, 2]


def test_drop_callback_invoked(sim, spy):
    dropped = []
    queue = BottleneckQueue(sim, rate=1000.0, buffer_bytes=500.0,
                            on_drop=lambda p, t: dropped.append(p.seq))
    queue.register_sink(0, spy)
    queue.receive(make_packet(seq=0, size=400), 0.0)   # in service
    queue.receive(make_packet(seq=1, size=400), 0.0)   # waits
    queue.receive(make_packet(seq=2, size=400), 0.0)   # dropped
    sim.run_all()
    assert dropped == [2]


def test_backlog_counts_in_service_packet(sim, spy):
    queue = BottleneckQueue(sim, rate=1000.0)
    queue.register_sink(0, spy)
    queue.receive(make_packet(size=1000), 0.0)
    queue.receive(make_packet(seq=1, size=1000), 0.0)
    assert queue.backlog_bytes == pytest.approx(2000)
    assert queue.queued_bytes == pytest.approx(1000)
    sim.run_all()
    assert queue.backlog_bytes == 0


def test_idle_queue_restarts_service(sim, spy):
    queue = BottleneckQueue(sim, rate=1000.0)
    queue.register_sink(0, spy)
    queue.receive(make_packet(seq=0), 0.0)
    sim.run_all()
    # Second packet arrives after the queue went idle.
    sim.schedule_at(5.0, queue.receive, make_packet(seq=1), 5.0)
    sim.run_all()
    assert spy.times[1] == pytest.approx(6.0)


def test_forwarded_statistics(sim, spy):
    queue = BottleneckQueue(sim, rate=1000.0)
    queue.register_sink(0, spy)
    for i in range(5):
        queue.receive(make_packet(seq=i, size=200), 0.0)
    sim.run_all()
    assert queue.forwarded == 5
    assert queue.forwarded_bytes == pytest.approx(1000)


def test_invalid_rate_raises(sim):
    with pytest.raises(ConfigurationError):
        BottleneckQueue(sim, rate=0.0)
    with pytest.raises(ConfigurationError):
        BottleneckQueue(sim, rate=-5.0)
    with pytest.raises(ConfigurationError):
        BottleneckQueue(sim, rate=1000.0, buffer_bytes=0.0)


def test_unregistered_flow_packet_is_discarded(sim, spy):
    queue = BottleneckQueue(sim, rate=1000.0)
    queue.register_sink(0, spy)
    queue.receive(make_packet(flow=7), 0.0)
    sim.run_all()
    assert spy.packets == []
    assert queue.forwarded == 1  # served, just nowhere to go
