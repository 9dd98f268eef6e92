"""Unit and integration tests for the sender/receiver endpoints."""

import gc
import heapq
import math
import random
import tracemalloc

import pytest

from repro import units
from repro.ccas.base import CCA
from repro.sim.engine import Simulator
from repro.sim.host import Receiver, Sender
from repro.sim.packet import Packet
from repro.sim.path import DelayElement
from repro.sim.queue import BottleneckQueue

from .conftest import SinkSpy, flow, run_dumbbell


class FixedWindowCCA(CCA):
    """Test CCA: a window and pacing set by hand, records events."""

    def __init__(self, cwnd_packets=4, pacing=None):
        super().__init__()
        self.set_outputs(cwnd_packets, pacing)
        self.acks = []
        self.losses = []
        self.timeouts = 0
        self.sends = []

    def on_ack(self, info):
        self.acks.append(info)

    def on_loss(self, now, seq, lost_bytes):
        self.losses.append(seq)

    def on_timeout(self, now):
        self.timeouts += 1

    def on_send(self, now, seq, size, is_retransmit):
        self.sends.append((now, seq, is_retransmit))

    def set_outputs(self, cwnd_packets, pacing=None):
        self.cwnd_packets = cwnd_packets
        self.pacing = pacing
        self.cwnd_bytes, self.pacing_rate = self.outputs()

    def outputs(self):
        return self.cwnd_packets * self.mss, self.pacing


def build_loop(sim, cca, rate=units.mbps(12), rm=0.04, mss=1500,
               buffer_bytes=None, ack_every=1, ack_timeout=None):
    """sender -> queue -> delay(rm) -> receiver -> sender."""
    sender = Sender(sim, 0, cca, mss=mss)
    receiver = Receiver(sim, 0, ack_every=ack_every,
                        ack_timeout=ack_timeout)
    queue = BottleneckQueue(sim, rate, buffer_bytes=buffer_bytes)
    delay = DelayElement(sim, receiver, rm)
    queue.register_sink(0, delay)
    sender.attach_path(queue)
    receiver.attach_ack_path(sender)
    return sender, receiver, queue


def test_window_limits_inflight(sim):
    cca = FixedWindowCCA(cwnd_packets=4)
    sender, receiver, _ = build_loop(sim, cca)
    sender.start()
    sim.run(0.01)  # before any ACK returns
    assert sender.sent_packets == 4
    assert sender.inflight_bytes == 4 * 1500


def test_ack_clocking_sustains_flow(sim):
    cca = FixedWindowCCA(cwnd_packets=4)
    sender, receiver, _ = build_loop(sim, cca)
    sender.start()
    sim.run(2.0)
    assert receiver.received_packets > 50
    assert sender.delivered_bytes == receiver.received_bytes


def test_rtt_sample_matches_path(sim):
    cca = FixedWindowCCA(cwnd_packets=1)
    sender, receiver, _ = build_loop(sim, cca, rate=units.mbps(12),
                                     rm=0.04)
    sender.start()
    sim.run(1.0)
    transmission = 1500 / units.mbps(12)
    expected = 0.04 + transmission
    assert sender.min_rtt == pytest.approx(expected, rel=1e-6)
    assert cca.acks[0].rtt == pytest.approx(expected, rel=1e-6)


def test_pacing_spaces_transmissions(sim):
    rate = units.mbps(1.2)  # 150000 B/s -> 10 ms per 1500 B packet
    cca = FixedWindowCCA(cwnd_packets=100, pacing=rate)
    sender, receiver, _ = build_loop(sim, cca, rate=units.mbps(120))
    sender.start()
    sim.run(0.1)
    times = [t for t, _, _ in cca.sends]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(gap == pytest.approx(0.01, rel=1e-6) for gap in gaps)


def test_delivery_rate_sample_reflects_bottleneck(sim):
    link = units.mbps(12)
    cca = FixedWindowCCA(cwnd_packets=50)  # enough to saturate
    sender, receiver, _ = build_loop(sim, cca, rate=link)
    sender.start()
    sim.run(2.0)
    samples = [a.delivery_rate for a in cca.acks[-50:]
               if a.delivery_rate is not None]
    assert samples, "expected delivery-rate samples"
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(link, rel=0.05)


def test_gap_loss_detection_and_retransmit(sim):
    from repro.sim.loss import TargetedLossElement
    cca = FixedWindowCCA(cwnd_packets=10)
    sender = Sender(sim, 0, cca)
    receiver = Receiver(sim, 0)
    queue = BottleneckQueue(sim, units.mbps(12))
    delay = DelayElement(sim, receiver, 0.04)
    queue.register_sink(0, delay)
    lossy = TargetedLossElement(sim, queue, drop_seqs=[5])
    sender.attach_path(lossy)
    receiver.attach_ack_path(sender)
    sender.start()
    sim.run(2.0)
    assert cca.losses == [5]
    assert sender.retransmits == 1
    # The retransmitted packet got through: once the window closes and
    # the path drains, every seq ever sent has arrived.
    cca.set_outputs(0)
    sim.run(3.0)
    assert sender.inflight_bytes == 0
    assert receiver.received_bytes == sender.next_seq * 1500


def test_rto_fires_when_all_acks_lost(sim):
    class BlackHole:
        def receive(self, packet, now):
            pass

    cca = FixedWindowCCA(cwnd_packets=4)
    sender = Sender(sim, 0, cca)
    sender.attach_path(BlackHole())
    sender.start()
    sim.run(5.0)
    assert cca.timeouts >= 1
    assert sender.inflight_bytes == 0 or sender.sent_packets > 4


def test_delayed_ack_aggregates(sim):
    cca = FixedWindowCCA(cwnd_packets=8)
    sender, receiver, _ = build_loop(sim, cca, ack_every=4,
                                     ack_timeout=0.2)
    sender.start()
    sim.run(1.0)
    multi = [a for a in cca.acks if a.acked_bytes > 1500]
    assert multi, "expected aggregated ACKs"
    assert any(a.acked_bytes == 4 * 1500 for a in cca.acks)


def test_delayed_ack_timeout_flushes_remainder(sim):
    # cwnd of 2 with ack_every=4: only the timeout can release ACKs.
    cca = FixedWindowCCA(cwnd_packets=2)
    sender, receiver, _ = build_loop(sim, cca, ack_every=4,
                                     ack_timeout=0.05)
    sender.start()
    sim.run(1.0)
    assert sender.delivered_bytes > 0


def test_goodput_counts_unique_bytes_once(sim):
    from repro.sim.loss import TargetedLossElement
    cca = FixedWindowCCA(cwnd_packets=10)
    sender = Sender(sim, 0, cca)
    receiver = Receiver(sim, 0)
    queue = BottleneckQueue(sim, units.mbps(12))
    delay = DelayElement(sim, receiver, 0.04)
    queue.register_sink(0, delay)
    lossy = TargetedLossElement(sim, queue, drop_seqs=[3])
    sender.attach_path(lossy)
    receiver.attach_ack_path(sender)
    sender.start()
    sim.run(1.0)
    cca.set_outputs(0)
    sim.run(2.0)
    # Seq 3 went out twice and arrived once; every other seq once.
    assert sender.sent_packets == sender.next_seq + 1
    assert receiver.received_packets == sender.sent_packets - lossy.dropped
    assert receiver.received_bytes == sender.next_seq * 1500


def random_arrivals(rng, count):
    """A seeded arrival order over seqs ``0..count-1``.

    Some seqs never arrive (gaps never filled), most arrive displaced
    from their send order, and some arrive twice: back to back (a
    duplicating element) or long after the first copy landed (a
    spurious retransmit).
    """
    gap = rng.choice((0.0, 0.02, 0.1))
    spread = rng.choice((0, 1, 4, 40))
    arrivals = [(seq + rng.uniform(0, spread), seq) for seq in range(count)
                if rng.random() >= gap]
    for _, seq in list(arrivals):
        roll = rng.random()
        if roll < 0.05:
            arrivals.append((seq + rng.uniform(0, 2), seq))
        elif roll < 0.10:
            arrivals.append((seq + rng.uniform(spread, 3 * spread + 50), seq))
    return [seq for _, seq in sorted(arrivals)]


def test_receiver_counts_like_a_set_for_any_arrival_order():
    # The receiver keeps a cursor and the early arrivals above it, not
    # every seq ever delivered; it must count what a set would count.
    shapes = {"reordered": 0, "duplicates": 0, "unfilled": 0}
    for seed in range(200):
        rng = random.Random(seed)
        count = rng.randint(1, 300)
        receiver = Receiver(Simulator(), 0)
        seen, unique_bytes, cursor = set(), 0.0, 0
        arrivals = random_arrivals(rng, count)
        for index, seq in enumerate(arrivals):
            size = 1000 + 7 * seq       # a wrong seq counted shows
            receiver.receive(Packet(0, seq, size, 0.0), 0.0)
            shapes["reordered"] += seq > cursor
            shapes["duplicates"] += seq in seen
            if seq not in seen:
                seen.add(seq)
                unique_bytes += size
            while cursor in seen:
                cursor += 1
            where = f"seed {seed}, arrival {index} (seq {seq})"
            assert receiver.received_packets == index + 1, where
            assert receiver.received_bytes == unique_bytes, where
            above = sum(1 for s in seen if s > cursor)
            assert len(receiver._ahead) <= above, where
            assert receiver.invariant_errors() == [], where
        shapes["unfilled"] += len(seen) < count
    # The schedules must reach every arrival shape the cursor handles.
    assert min(shapes.values()) > 100, shapes


def test_retained_memory_per_ack_is_the_rtt_log_and_samples():
    # A finished run keeps its reported data: the sender's RTT log
    # (16 B per ACK) and the recorders' samples. Doubling a run's
    # length may add no per-packet state beyond those; a set of every
    # delivered seq costs ~100 B per ACK.
    from repro.analysis import starvation

    def retained(duration):
        spec = starvation.copa_two_flow_poisoned.spec(rate_mbps=12.0,
                                                       duration=duration)
        gc.collect()
        tracemalloc.start()
        try:
            result = spec.run()
            gc.collect()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        acks = sum(len(flow.sender.rtt_values)
                   for flow in result.scenario.flows)
        return result, size, acks

    retained(0.5)       # first-use imports and caches land here
    kept = [retained(5.0), retained(10.0)]   # both results stay alive
    (_, short_bytes, short_acks), (_, long_bytes, long_acks) = kept
    assert long_acks - short_acks > 4000
    per_ack = (long_bytes - short_bytes) / (long_acks - short_acks)
    assert per_ack <= 32, f"{per_ack:.1f} retained bytes per extra ACK"


class ShrinkOnSend(FixedWindowCCA):
    """Publishes a one-packet window from inside ``on_send``."""

    def on_send(self, now, seq, size, is_retransmit):
        super().on_send(now, seq, size, is_retransmit)
        self.set_outputs(1)


def test_send_loop_rereads_outputs_after_every_send(sim):
    # The sender asks the CCA again on every pass of its send loop: a
    # window published by on_send stops a same-instant burst at once.
    cca = ShrinkOnSend(cwnd_packets=10)
    sender, receiver, _ = build_loop(sim, cca)
    sender.start()
    sim.run(0.01)  # before any ACK returns
    assert sender.sent_packets == 1
    assert sender.inflight_bytes == 1500


def test_zero_pacing_rate_pauses_sending(sim):
    cca = FixedWindowCCA(cwnd_packets=10, pacing=0.0)
    sender, receiver, _ = build_loop(sim, cca)
    sender.start()
    sim.run(0.5)
    assert sender.sent_packets == 0


def test_kick_resumes_after_rate_increase(sim):
    cca = FixedWindowCCA(cwnd_packets=10, pacing=0.0)
    sender, receiver, _ = build_loop(sim, cca)
    sender.start()

    def raise_rate():
        cca.set_outputs(10, units.mbps(1))
        sender.kick()

    sim.schedule(0.5, raise_rate)
    sim.run(1.0)
    assert sender.sent_packets > 0


def test_min_rtt_is_monotone_nonincreasing(sim):
    cca = FixedWindowCCA(cwnd_packets=20)
    sender, receiver, _ = build_loop(sim, cca)
    sender.start()
    sim.run(2.0)
    mins = []
    low = math.inf
    for ack in cca.acks:
        low = min(low, ack.rtt)
        mins.append(low)
        assert ack.min_rtt == pytest.approx(low)


def test_burst_size_validation(sim):
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        Sender(sim, 0, FixedWindowCCA(), burst_size=0)


def test_burst_sender_releases_in_batches(sim):
    cca = FixedWindowCCA(cwnd_packets=16)
    sender = Sender(sim, 0, cca, burst_size=8)
    receiver = Receiver(sim, 0)
    queue = BottleneckQueue(sim, units.mbps(12))
    delay = DelayElement(sim, receiver, 0.04)
    queue.register_sink(0, delay)
    sender.attach_path(queue)
    receiver.attach_ack_path(sender)
    sender.start()
    sim.run(2.0)
    # Sends cluster: look at inter-send gaps after the initial window —
    # most sends happen back-to-back (same timestamp) in groups.
    times = [t for t, _, _ in cca.sends[16:]]
    same_instant = sum(1 for a, b in zip(times, times[1:])
                       if b - a < 1e-9)
    assert same_instant > len(times) * 0.5
    assert sender.delivered_bytes > 0


# ----------------------------------------------------------------------
# Loss detection: the rule, and the work it may cost
# ----------------------------------------------------------------------


class LossRuleModel:
    """Brute-force mirror of the sender's loss bookkeeping.

    It pins the rule, not the structure that evaluates it: on each ACK
    the packets declared lost are exactly the unacked seqs at or below
    the dup-ACK horizon whose latest transmission is no later than the
    ACKed packet's, in ascending seq order.
    """

    def __init__(self, reorder_threshold):
        self.reorder_threshold = reorder_threshold
        self.unacked = {}       # seq -> latest send time
        self.lost = []          # awaiting retransmission, in order
        self.declared = []      # every seq handed to cca.on_loss
        self.highest_acked = -1

    def on_send(self, packet):
        if packet.is_retransmit:
            assert self.lost.pop(0) == packet.seq
        self.unacked[packet.seq] = packet.sent_time

    def on_ack(self, ack):
        for seq in ack.acked_seqs:
            if self.unacked.pop(seq, None) is None and seq in self.lost:
                self.lost.remove(seq)
        self.highest_acked = max(self.highest_acked, *ack.acked_seqs)
        horizon = self.highest_acked - self.reorder_threshold
        newly = sorted(seq for seq, sent in self.unacked.items()
                       if seq <= horizon
                       and sent <= ack.rtt_sample_sent_time)
        for seq in newly:
            del self.unacked[seq]
        self.lost += newly
        self.declared += newly

    def on_rto(self):
        self.lost += sorted(self.unacked)
        self.unacked.clear()


def drive_random_ack_schedule(seed, steps=120):
    """One bare Sender under a seeded adversarial network.

    The forward path and the ACK path only collect; the schedule then
    drops, reorders and duplicates by hand, fires the RTO by hand and
    moves the window, comparing sender and model after every step.
    """
    rng = random.Random(seed)
    sim = Simulator()
    cca = FixedWindowCCA(cwnd_packets=rng.randint(4, 40))
    threshold = rng.choice((1, 3, 3, 8))
    sender = Sender(sim, 0, cca, reorder_threshold=threshold)
    receiver = Receiver(sim, 0, ack_every=rng.choice((1, 1, 2, 4)))
    wire, ack_wire = SinkSpy(), SinkSpy()
    sender.attach_path(wire)
    receiver.attach_ack_path(ack_wire)
    model = LossRuleModel(threshold)
    packets, acks = [], []
    seen = {"late_acks": 0, "acked_retransmits": 0, "rtos": 0}

    def collect():
        for packet in wire.packets:
            model.on_send(packet)
            packets.append(packet)
        acks.extend(ack_wire.packets)
        wire.items.clear()
        ack_wire.items.clear()

    def pick(pool, reorder):
        return rng.randrange(len(pool)) if rng.random() < reorder else 0

    sender.start()
    sim.run(0.0)    # the initial window; the engine never runs again
    collect()
    for step in range(steps):
        if rng.random() < 0.8:      # else: a same-instant tie
            sim.now += rng.uniform(1e-4, 1e-2)
        roll = rng.random()
        if roll < 0.03 or not (packets or acks):
            seen["rtos"] += bool(model.unacked)
            sender._on_rto()
            model.on_rto()
        elif roll < 0.08:
            cca.set_outputs(rng.randint(4, 40))
            sender.kick()
        elif packets and (not acks or roll < 0.54):
            packet = packets.pop(pick(packets, 0.15))
            if rng.random() < 0.9:  # else: dropped
                seen["acked_retransmits"] += packet.is_retransmit
                receiver.receive(packet, sim.now)
        else:
            index = pick(acks, 0.15)
            ack = acks[index]
            if rng.random() < 0.9:  # else: delivered again later
                del acks[index]
            if rng.random() < 0.9:  # else: dropped
                seen["late_acks"] += ack.seq < sender.highest_acked
                sender.receive(ack, sim.now)
                model.on_ack(ack)
        collect()
        where = f"seed {seed}, step {step}"
        assert cca.losses == model.declared, where
        assert list(sender._lost) == model.lost, where
        assert set(sender._unacked) == set(model.unacked), where
        assert sender.inflight_bytes == sender.mss * len(model.unacked), \
            where
        # (A same-instant tie makes a zero RTT sample, which the
        # sanity battery rightly dislikes; it is not the subject here.)
        assert not [error for error in sender.invariant_errors()
                    if error[0] == "conservation"], where
    seen["declared"] = len(model.declared)
    seen["retransmits"] = sender.retransmits
    return seen


def test_declared_losses_match_brute_force_rule():
    totals = {}
    for seed in range(240):
        for name, count in drive_random_ack_schedule(seed).items():
            totals[name] = totals.get(name, 0) + count
    # The schedules must actually reach the cases the rule is about.
    assert totals["declared"] > 4000
    assert totals["retransmits"] > 10000
    assert totals["acked_retransmits"] > 3000
    assert totals["late_acks"] > 3000
    assert totals["rtos"] > 500


class CountingHeapq:
    """Stands in for ``repro.sim.host.heapq`` and counts its use."""

    def __init__(self):
        self.operations = 0

    def heappush(self, heap, item):
        self.operations += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.operations += 1
        return heapq.heappop(heap)


def test_loss_recovery_heap_work_is_bounded(monkeypatch):
    # Slow start overshoots a 4-BDP buffer, so several hundred
    # retransmissions are outstanding at once. Heap work may grow with
    # what is retransmitted, never with ACKs x outstanding.
    counter = CountingHeapq()
    monkeypatch.setattr("repro.sim.host.heapq", counter)
    result = run_dumbbell([flow("reno", units.ms(50))], units.mbps(24),
                          duration=4.0, buffer_bdp=4.0)
    sender = result.scenario.flows[0].sender
    assert sender.retransmits > 500
    assert counter.operations <= 2 * sender.sent_packets


class CountingPushes:
    """Stands in for ``repro.sim.engine.heapq`` and counts pushes."""

    def __init__(self):
        self.pushes = 0
        self.heappop = heapq.heappop

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)


@pytest.mark.parametrize("experiment", ["bbr_rtt_starvation",
                                        "vivace_ack_aggregation"])
def test_paced_sender_heap_pushes_track_events(monkeypatch, experiment):
    # Every ACK to a paced sender re-aims its pacing wakeup, nearly
    # always at the release time it already had: that must cost no heap
    # entry. Cancel-and-reschedule made it 1.171 (BBR) and 1.253
    # (Vivace) pushes per executed event on these golden scenarios
    # (section5/bbr_rtt, section5/vivace_agg).
    from repro.analysis import starvation
    counter = CountingPushes()
    monkeypatch.setattr("repro.sim.engine.heapq", counter)
    spec = getattr(starvation, experiment).spec(rate_mbps=12.0,
                                                duration=10.0)
    result = spec.run()
    executed = result.scenario.sim.events_processed
    assert executed > 5_000
    assert counter.pushes <= 1.02 * executed


@pytest.mark.parametrize("experiment", ["bbr_rtt_starvation",
                                        "vivace_ack_aggregation"])
def test_one_sampler_event_per_interval(monkeypatch, experiment):
    # One event per sample interval samples every recorder of the
    # scenario (two flows and the queue here), where each recorder used
    # to post its own: 36,064 events of the benchmark's 688,352.
    from repro.analysis import starvation
    from repro.sim.recorder import Sampler
    ticks = []
    tick = Sampler.tick

    def counted(self):
        ticks.append(self.sim.now)
        tick(self)

    monkeypatch.setattr(Sampler, "tick", counted)
    duration = 10.0
    spec = getattr(starvation, experiment).spec(rate_mbps=12.0,
                                                duration=duration)
    scenario = spec.run().scenario
    recorders = ([flow.recorder for flow in scenario.flows]
                 + scenario.queue_recorders)
    assert len(recorders) == 3
    interval = recorders[0].sample_interval
    assert len(ticks) == math.floor(duration / interval + 1e-9)
    for recorder in recorders:
        assert list(recorder.sample_times) == ticks
