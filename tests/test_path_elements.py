"""Tests for path assembly (repro.sim.path)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.path import DelayElement, chain
from repro.sim.packet import Packet


def make_packet(seq=0):
    return Packet(flow_id=0, seq=seq, size=1500, sent_time=0.0)


def test_delay_element_adds_fixed_delay(sim, spy):
    element = DelayElement(sim, spy, delay=0.025)
    element.receive(make_packet(), 0.0)
    sim.run_all()
    assert spy.times == [pytest.approx(0.025)]


def test_zero_delay_forwards_synchronously(sim, spy):
    element = DelayElement(sim, spy, delay=0.0)
    element.receive(make_packet(), 1.5)
    # No event needed: delivered during the call.
    assert spy.times == [1.5]


def test_negative_delay_rejected(sim, spy):
    with pytest.raises(ConfigurationError):
        DelayElement(sim, spy, delay=-0.01)


def test_chain_orders_factories_in_traversal_order(sim, spy):
    order = []

    class Tap:
        """Notes its tag for every packet, then forwards it."""

        def __init__(self, tag, sink):
            self.tag = tag
            self.sink = sink

        def receive(self, packet, now):
            order.append(self.tag)
            self.sink.receive(packet, now)

    def factory(tag):
        return lambda s, sink: Tap(tag, sink)

    entry = chain(sim, [factory("first"), factory("second")], spy)
    entry.receive(make_packet(), 0.0)
    assert order == ["first", "second"]
    assert len(spy.packets) == 1


def test_chain_empty_returns_terminal(sim, spy):
    assert chain(sim, None, spy) is spy
    assert chain(sim, [], spy) is spy


def test_chain_composes_delays(sim, spy):
    def delay_factory(amount):
        return lambda s, sink: DelayElement(s, sink, amount)

    entry = chain(sim, [delay_factory(0.01), delay_factory(0.02)], spy)
    entry.receive(make_packet(), 0.0)
    sim.run_all()
    assert spy.times == [pytest.approx(0.03)]
