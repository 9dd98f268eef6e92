"""Tests for the impairment elements (repro.sim.faults) and the window
gate that confines any element factory to a time window."""

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.sim.faults import (BlackoutElement, DuplicateElement,
                              GilbertElliottLossElement, LinkFlapElement,
                              ReorderElement, WindowGate)
from repro.sim.loss import RandomLossElement
from repro.sim.packet import Packet
from repro.sim.path import chain, gated
from repro.spec import ElementSpec

from .conftest import flow, run_dumbbell


def pkt(seq, size=1500):
    return Packet(flow_id=0, seq=seq, size=size, sent_time=0.0)


def make(cls, built, **kwargs):
    """An element factory for ``cls`` that also appends what it builds
    to ``built``, so a test can read the counters after the run."""
    def factory(sim, sink):
        element = cls(sim, sink, **kwargs)
        built.append(element)
        return element
    return factory


class TestGilbertElliott:
    def test_empirical_loss_rate_matches_stationary(self, sim, spy):
        element = GilbertElliottLossElement.from_mean_loss(
            sim, spy, mean_loss=0.05, burst_packets=4.0, seed=42)
        n = 40000
        for i in range(n):
            element.receive(pkt(i), 0.0)
        measured = element.dropped / n
        assert measured == pytest.approx(0.05, rel=0.15)
        assert element.expected_loss_rate() == pytest.approx(0.05)

    def test_losses_are_bursty(self, sim, spy):
        element = GilbertElliottLossElement(
            sim, spy, p_enter_bad=0.01, p_exit_bad=0.2, seed=7)
        drops = []
        for i in range(20000):
            before = element.dropped
            element.receive(pkt(i), 0.0)
            if element.dropped > before:
                drops.append(i)
        assert drops, "no losses at all"
        # Mean burst length 1/p_exit = 5 packets: consecutive drops
        # must occur far more often than under independent loss.
        consecutive = sum(1 for a, b in zip(drops, drops[1:])
                          if b == a + 1)
        assert consecutive / len(drops) > 0.3

    def test_deterministic_under_fixed_seed(self, sim, spy):
        def run(seed):
            element = GilbertElliottLossElement.from_mean_loss(
                sim, spy, mean_loss=0.1, seed=seed)
            survived = []
            for i in range(2000):
                before = element.forwarded
                element.receive(pkt(i), 0.0)
                if element.forwarded > before:
                    survived.append(i)
            return survived

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_invalid_probabilities_raise(self, sim, spy):
        with pytest.raises(ConfigurationError):
            GilbertElliottLossElement(sim, spy, p_enter_bad=0.0,
                                      p_exit_bad=0.5)
        with pytest.raises(ConfigurationError):
            GilbertElliottLossElement(sim, spy, p_enter_bad=0.1,
                                      p_exit_bad=1.5)
        with pytest.raises(ConfigurationError):
            GilbertElliottLossElement.from_mean_loss(sim, spy,
                                                     mean_loss=1.0)


class TestBlackout:
    def test_drops_only_inside_windows(self, sim, spy):
        built = []
        entry = chain(sim, [gated(make(BlackoutElement, built), 1.0, 2.0),
                            gated(make(BlackoutElement, built), 3.0, 4.0)],
                      spy)
        for i, t in enumerate([0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 4.5]):
            entry.receive(pkt(i), t)
        assert spy.times == [0.5, 2.0, 2.5, 4.5]
        # chain builds back to front: the [3, 4) outage comes first.
        assert [e.dropped for e in built] == [1, 2]

    def test_ungated_blackout_is_a_dead_link(self, sim, spy):
        element = BlackoutElement(sim, spy)
        for i in range(5):
            element.receive(pkt(i), float(i))
        assert spy.packets == [] and element.dropped == 5

    def test_zero_deliveries_inside_window_end_to_end(self):
        blackout = ElementSpec("blackout", start=2.0, end=3.0)
        result = run_dumbbell(
            [flow("vegas", units.ms(40), data_elements=[blackout])],
            units.mbps(12), duration=6.0)
        assert result.scenario.flows[0].sender.path.impaired.dropped > 0
        # ACKs return instantly, so ACK times track delivery times.
        # Allow rm + queueing for in-flight packets that beat the
        # window's opening; after that the pipe must be silent until
        # retransmissions following the outage get through.
        ack_times = result.scenario.flows[0].recorder.rtt_times
        silent = [t for t in ack_times if 2.3 <= t < 3.0]
        assert silent == []
        assert any(t > 3.0 for t in ack_times)  # flow recovers
        assert result.stats[0].throughput > 0


class TestLinkFlap:
    def test_up_then_down_each_period(self, sim, spy):
        element = LinkFlapElement(sim, spy, period=2.0, down_time=0.5)
        # Up for 1.5 s, down for 0.5 s, repeating.
        assert not element.is_down(0.0)
        assert not element.is_down(1.49)
        assert element.is_down(1.5)
        assert element.is_down(1.99)
        assert not element.is_down(2.0)
        assert element.is_down(3.75)

    def test_phase_shifts_cycle(self, sim, spy):
        shifted = LinkFlapElement(sim, spy, period=2.0, down_time=0.5,
                                  phase=1.5)
        assert shifted.is_down(0.0)
        assert not shifted.is_down(0.5)

    def test_drop_counters(self, sim, spy):
        element = LinkFlapElement(sim, spy, period=1.0, down_time=0.5)
        for i, t in enumerate([0.1, 0.6, 1.1, 1.7]):
            element.receive(pkt(i), t)
        assert element.dropped == 2
        assert element.forwarded == 2

    def test_validation(self, sim, spy):
        with pytest.raises(ConfigurationError):
            LinkFlapElement(sim, spy, period=0.0, down_time=0.1)
        with pytest.raises(ConfigurationError):
            LinkFlapElement(sim, spy, period=1.0, down_time=1.0)


class TestReorder:
    def test_straggler_is_overtaken(self, sim, spy):
        # With prob 1 every packet is held 10 ms; arrivals 1 ms apart
        # mean packet k is released after packets k+1..k+9 arrive.
        element = ReorderElement(sim, spy, reorder_prob=1.0,
                                 extra_delay=0.010, seed=0)
        for i in range(5):
            sim.schedule(0.001 * (i + 1), element.receive, pkt(i),
                         0.001 * (i + 1))
        sim.run_all()
        seqs = [p.seq for p in spy.packets]
        assert seqs == [0, 1, 2, 3, 4]  # all held -> order preserved
        assert element.reordered == 5

        # Now mix held and pass-through packets: reordering appears.
        sim2 = type(sim)()
        spy2 = type(spy)()
        element = ReorderElement(sim2, spy2, reorder_prob=0.5,
                                 extra_delay=0.010, seed=1)
        for i in range(50):
            sim2.schedule(0.001 * (i + 1), element.receive, pkt(i),
                          0.001 * (i + 1))
        sim2.run_all()
        seqs = [p.seq for p in spy2.packets]
        assert sorted(seqs) == list(range(50))
        assert seqs != sorted(seqs), "expected reordering"

    def test_validation(self, sim, spy):
        with pytest.raises(ConfigurationError):
            ReorderElement(sim, spy, reorder_prob=1.5, extra_delay=0.01)
        with pytest.raises(ConfigurationError):
            ReorderElement(sim, spy, reorder_prob=0.5, extra_delay=0.0)


class TestDuplicateAndCorruption:
    def test_duplicates_delivered_twice(self, sim, spy):
        element = DuplicateElement(sim, spy, dup_prob=1.0, seed=0)
        for i in range(10):
            element.receive(pkt(i), 0.0)
        assert len(spy.packets) == 20
        assert element.duplicated == 10
        # A duplicate is the same object delivered twice, not a copy.
        assert all(a is b for a, b in zip(spy.packets[::2],
                                          spy.packets[1::2]))

    def test_validation(self, sim, spy):
        with pytest.raises(ConfigurationError):
            DuplicateElement(sim, spy, dup_prob=-0.1)


class TestWindowGate:
    def test_bypass_outside_window(self, sim, spy):
        blackout = BlackoutElement(sim, spy)
        gate = WindowGate(sim, blackout, spy, start=1.0, end=2.0)
        gate.receive(pkt(0), 0.5)   # bypass
        gate.receive(pkt(1), 1.5)   # impaired -> dropped
        gate.receive(pkt(2), 2.5)   # bypass
        assert [p.seq for p in spy.packets] == [0, 2]
        assert blackout.dropped == 1

    def test_gated_wires_the_elements_sink_as_the_bypass(self, sim, spy):
        built = []
        gate = gated(make(RandomLossElement, built, loss_prob=0.0),
                     1.0, 2.0)(sim, spy)
        assert isinstance(gate, WindowGate)
        assert gate.impaired is built[0]
        assert gate.bypass is built[0].sink is spy


class TestGatedChain:
    """A list of gated factories through :func:`chain` is what a fault
    schedule used to be."""

    def test_windows_compose_in_order(self, sim, spy):
        built = []
        entry = chain(sim, [
            gated(make(BlackoutElement, built), 1.0, 2.0),
            gated(make(RandomLossElement, built, loss_prob=0.5, seed=5),
                  0.0, 10.0)], spy)
        for i in range(100):
            entry.receive(pkt(i), 0.5)    # random loss only
        for i in range(100, 120):
            entry.receive(pkt(i), 1.5)    # blackout swallows everything
        # Built back to front: the loss element (last on the path) first.
        loss, blackout = built
        assert blackout.dropped == 20
        assert 0 < loss.dropped < 100
        assert all(p.seq < 100 for p in spy.packets)

    def test_schedule_replays_identically(self):
        def run():
            elements = [
                ElementSpec("gilbert_elliott",
                            {"mean_loss": 0.05, "seed": 11000}, 0.0, 10.0),
                ElementSpec("duplicate", {"dup_prob": 0.1, "seed": 11001},
                            2.0, 8.0)]
            return run_dumbbell(
                [flow("vegas", units.ms(40), data_elements=elements)],
                units.mbps(12), duration=10.0, warmup=2.0).stats[0]

        first, second = run(), run()
        assert first == second  # FlowStats is a dataclass: full equality

    def test_two_runs_identical_with_bbr_and_all_faults(self):
        """Acceptance: deterministic replay across the full zoo."""
        def run():
            elements = [
                ElementSpec("gilbert_elliott",
                            {"mean_loss": 0.02, "seed": 3000}, 0.0, 15.0),
                ElementSpec("blackout", start=4.0, end=4.5),
                ElementSpec("flap", {"period": 1.0, "down_time": 0.2},
                            6.0, 9.0),
                ElementSpec("reorder", {"reorder_prob": 0.05,
                                        "extra_delay": 0.005, "seed": 3003},
                            9.0, 12.0),
                ElementSpec("duplicate", {"dup_prob": 0.02, "seed": 3004},
                            0.0, 15.0),
                ElementSpec("random_loss", {"loss_prob": 0.01, "seed": 3005},
                            0.0, 15.0)]
            return run_dumbbell(
                [flow("bbr", units.ms(30), {"seed": 1},
                      data_elements=elements),
                 flow("bbr", units.ms(30), {"seed": 2})],
                units.mbps(24), duration=15.0, warmup=5.0).stats

        assert run() == run()

    def test_shared_link_faults_hit_every_flow(self):
        result = run_dumbbell(
            [flow("vegas", units.ms(40)), flow("vegas", units.ms(40))],
            units.mbps(12), duration=5.0, warmup=2.5,
            elements=[ElementSpec("blackout", start=1.0, end=2.0)])
        first, second = (f.sender.path for f in result.scenario.flows)
        assert first is second  # one shared element, not one per flow
        assert first.impaired.dropped > 0
        # Both flows keep running after the shared outage.
        assert all(s.throughput > 0 for s in result.stats)
