"""Endpoint hosts: a window/pacing-controlled sender and an ACKing receiver.

The sender implements a small reliable transport that is deliberately
simpler than TCP but preserves everything the paper's CCAs need:

* per-packet sequence numbers and per-packet (or aggregated) ACKs,
* RTT samples from echoed send timestamps,
* delivery-rate samples in the style of Linux TCP's rate sampler (BBR),
* gap-based loss detection (a sequence gap of ``reorder_threshold``
  packets means a drop; only a reorder element makes one spurious),
* a retransmission-timeout backstop,
* retransmission of lost packets (lost packets are resent before new
  data so that goodput equals acknowledged unique bytes).

The receiver supports immediate ACKs, delayed ACKs (ACK every ``every``-th
packet or after ``timeout``), which is the mechanism behind the paper's
Figure 7 experiment.

Design notes (see docs/PERFORMANCE.md):

* The RTO backstop is deadline-deferred: instead of cancelling and
  rescheduling a timer on every ACK (which used to leave hundreds of
  lazily-deleted events in the heap at any moment), the sender tracks
  ``_rto_deadline`` and lets an already-scheduled timer wake up, notice
  the deadline moved, and re-arm itself. Firing times are identical.
* The sender owns one pacing :class:`~repro.sim.engine.Event` for its
  whole life and re-aims it with :meth:`Simulator.rearm`, which fires
  where cancel-and-reschedule would; re-aiming it at an unchanged
  release time (every ACK to a paced sender) pushes nothing.
* Every transmission is a plain ``Packet(...)``, every acknowledgment
  a plain ``Ack(...)`` and every CCA digest an ``AckInfo(...)`` built
  positionally; a receiver that ACKs every packet builds the ACK
  without the pending-list bookkeeping.
* The receiver counts each seq once with an in-order cursor plus the
  set of seqs that arrived above it, so it holds the reorder window,
  not one entry per packet of the run.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from .engine import Event, Simulator
from .packet import Ack, AckInfo, Packet

ACK_SIZE = 40


class Sender:
    """A bulk-transfer sender driven by a congestion control algorithm.

    Args:
        sim: simulation engine.
        flow_id: unique flow identifier.
        cca: the congestion controller (see :class:`repro.ccas.base.CCA`).
        mss: packet payload size in bytes.
        start_time: when the flow starts sending.
        reorder_threshold: sequence gap (in packets) treated as loss.
        min_rto / rto_multiplier: retransmission-timeout backstop.
        burst_size: packets released together; with more than one, the
            sender holds window permission until a whole burst fits.

    ``rtt_times`` / ``rtt_values`` log one RTT sample per ACK processed.
    """

    def __init__(self, sim: Simulator, flow_id: int, cca,
                 mss: int = 1500, start_time: float = 0.0,
                 reorder_threshold: int = 3,
                 min_rto: float = 0.2, rto_multiplier: float = 3.0,
                 burst_size: int = 1) -> None:
        if mss <= 0:
            raise ConfigurationError(f"mss must be > 0, got {mss}")
        if burst_size < 1:
            raise ConfigurationError(
                f"burst_size must be >= 1, got {burst_size}")
        self.sim = sim
        self.flow_id = flow_id
        self.cca = cca
        self.mss = mss
        self.start_time = start_time
        self.reorder_threshold = reorder_threshold
        self.min_rto = min_rto
        self.rto_multiplier = rto_multiplier
        # GSO/offload-style batching (Section 5.4 discussion): hold
        # window permission until a full burst can be released at once.
        self.burst_size = burst_size

        self.path: Optional[object] = None  # first element of forward path

        self.next_seq = 0
        self.highest_acked = -1
        # seq -> (size, last_sent_time)
        self._unacked: Dict[int, Tuple[int, float]] = {}
        # Loss scoreboard (see _detect_losses): the dup-ACK horizon has
        # passed every seq below _judged; those of them still unacked
        # wait in _parked, a min-heap of (sent_time, seq).
        self._judged = 0
        self._parked: List[Tuple[float, int]] = []
        self._lost: Deque[int] = deque()    # seqs awaiting retransmission
        self._lost_set: Set[int] = set()
        self.inflight_bytes = 0

        self.delivered_bytes = 0.0      # cumulatively ACKed unique bytes
        self.delivered_time = 0.0
        self.sent_packets = 0
        self.retransmits = 0
        self.losses_detected = 0
        self.timeouts = 0

        self.min_rtt = math.inf
        self.srtt: Optional[float] = None
        self.latest_rtt: Optional[float] = None
        self.rtt_times = array("d")
        self.rtt_values = array("d")

        # The sender's one pacing wakeup, re-aimed by _try_send.
        self._pacing_timer = Event(self._try_send)
        self._rto_timer: Optional[Event] = None
        self._rto_deadline = 0.0
        self._next_send_time = 0.0
        self._started = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_path(self, path_entry: object) -> None:
        """Set the first forward-path element packets are handed to."""
        self.path = path_entry

    def start(self) -> None:
        """Schedule the flow start (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.post_at(self.start_time, self._begin)

    def _begin(self) -> None:
        if self.path is None:
            raise ConfigurationError("sender has no forward path attached")
        self.cca.attach(self)
        self._next_send_time = self.sim.now
        self._try_send()
        self._arm_rto()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _arm_rto(self) -> None:
        """Move the RTO deadline; reuse a pending wakeup when possible.

        A timer already set to wake at or before the new deadline is
        left alone — :meth:`_on_rto_timer` re-arms to the deferred
        deadline when it fires early. This replaces the old
        cancel-and-reschedule per ACK, which filled the event heap with
        lazily-deleted timers (one per ACK for the whole RTO span).
        """
        srtt = self.srtt
        if srtt is None:
            rto = max(self.min_rto, 1.0)
        else:
            rto = self.rto_multiplier * srtt
            if rto < self.min_rto:
                rto = self.min_rto
        deadline = self.sim.now + rto
        self._rto_deadline = deadline
        timer = self._rto_timer
        if timer is not None:
            if timer.time <= deadline:
                return
            timer.cancel()
        self._rto_timer = self.sim.schedule_at(deadline,
                                               self._on_rto_timer)

    def _on_rto_timer(self) -> None:
        self._rto_timer = None
        deadline = self._rto_deadline
        if self.sim.now < deadline - 1e-12:
            # ACKs moved the deadline since this wakeup was scheduled.
            self._rto_timer = self.sim.schedule_at(deadline,
                                                   self._on_rto_timer)
            return
        self._on_rto()

    def _burst_gate_open(self) -> bool:
        """With burst_size > 1 (the caller checks), wait until a full
        burst fits the window (an idle connection may always send what
        it has)."""
        if self.inflight_bytes == 0:
            return True
        headroom = self.cca.cwnd_bytes - self.inflight_bytes
        return headroom >= self.burst_size * self.mss

    def _try_send(self) -> None:
        """Send as many packets as the window and pacer allow."""
        if self.burst_size > 1 and not self._burst_gate_open():
            return
        cca = self.cca
        sim = self.sim
        mss = self.mss
        while self.inflight_bytes + mss <= cca.cwnd_bytes:
            rate = cca.pacing_rate
            if rate is not None:
                if rate <= 0:
                    return  # paced at zero: wait for the CCA to raise it
                if sim.now + 1e-15 < self._next_send_time:
                    sim.rearm(self._pacing_timer, self._next_send_time)
                    return
            self._send_one()
            if rate is not None:
                base = self._next_send_time
                if base < sim.now:
                    base = sim.now
                self._next_send_time = base + mss / rate

    def kick(self) -> None:
        """Re-evaluate sending; CCAs call this after timer-driven changes."""
        if self._started and self.sim.now >= self.start_time:
            self._try_send()

    def _send_one(self) -> None:
        if self._lost:
            seq = self._lost.popleft()
            self._lost_set.discard(seq)
            is_retransmit = True
            self.retransmits += 1
        else:
            seq = self.next_seq
            self.next_seq += 1
            is_retransmit = False
        now = self.sim.now
        mss = self.mss
        packet = Packet(self.flow_id, seq, mss, now, self.delivered_bytes,
                        self.delivered_time, is_retransmit)
        self._unacked[seq] = (mss, now)
        if seq < self._judged:
            # The horizon is already past this retransmission.
            heapq.heappush(self._parked, (now, seq))
        self.inflight_bytes += mss
        self.sent_packets += 1
        self.cca.on_send(now, seq, mss, is_retransmit)
        self.path.receive(packet, now)

    # ------------------------------------------------------------------
    # Receiving ACKs
    # ------------------------------------------------------------------

    def receive_ack(self, ack: Ack, now: float) -> None:
        rtt = now - ack.rtt_sample_sent_time
        self.latest_rtt = rtt
        if rtt < self.min_rtt:
            self.min_rtt = rtt
        srtt = self.srtt
        self.srtt = rtt if srtt is None else 0.875 * srtt + 0.125 * rtt
        self.rtt_times.append(now)
        self.rtt_values.append(rtt)

        unacked = self._unacked
        highest = self.highest_acked
        newly_acked = 0
        acked_seqs = ack.acked_seqs
        for seq in acked_seqs:
            entry = unacked.pop(seq, None)
            if entry is not None:
                newly_acked += entry[0]
            elif seq in self._lost_set:
                # ACK raced a queued retransmission: cancel it.
                self._lost_set.discard(seq)
                self._lost.remove(seq)
            if seq > highest:
                highest = seq
        self.highest_acked = highest
        self.inflight_bytes -= newly_acked

        delivery_rate = None
        interval = now - ack.delivered_time_at_send
        if interval > 1e-12 and ack.delivered_time_at_send > 0:
            delivery_rate = ((self.delivered_bytes + newly_acked
                              - ack.delivered_at_send) / interval)
        self.delivered_bytes += newly_acked
        self.delivered_time = now

        self._detect_losses(now, ack.rtt_sample_sent_time)

        info = AckInfo(rtt, newly_acked, delivery_rate, self.inflight_bytes,
                       self.min_rtt, now, self.delivered_bytes,
                       ack.delivered_at_send, acked_seqs,
                       ack.ecn_marked_count)
        self.cca.on_ack(info)
        self._arm_rto()
        self._try_send()

    #: Entry point for the reverse path (duck-typed like a sink); an
    #: alias so ACK delivery costs one frame, not two.
    receive = receive_ack

    def _detect_losses(self, now: float, ack_sent_time: float) -> None:
        """Declare unacked packets below the dup-ACK horizon lost.

        A packet is lost only if it is (a) more than ``reorder_threshold``
        sequence numbers below the highest ACK and (b) was sent no later
        than the packet whose ACK we are processing — otherwise a fresh
        retransmission would be re-declared lost before it could arrive.
        Losses are declared in ascending seq order: ``_lost`` order is
        retransmission order and ``on_loss`` order is CCA state.

        Each seq is looked up once, when the horizon passes it; one that
        fails (b) then waits in ``_parked`` keyed by its send time, so an
        ACK costs heap work only for the retransmissions it releases.
        """
        horizon = self.highest_acked - self.reorder_threshold
        judged = self._judged
        parked = self._parked
        if judged > horizon and (not parked
                                 or parked[0][0] > ack_sent_time):
            return
        unacked = self._unacked
        lost = []
        while parked and parked[0][0] <= ack_sent_time:
            sent, seq = heapq.heappop(parked)
            entry = unacked.get(seq)
            if entry is not None and entry[1] == sent:
                lost.append(seq)    # else stale: ACKed or sent again
        lost.sort()
        # Everything parked is below the cursor, so the seqs the horizon
        # passes now all sort after the released ones.
        while judged <= horizon:
            entry = unacked.get(judged)
            if entry is not None:
                if entry[1] > ack_sent_time:
                    heapq.heappush(parked, (entry[1], judged))
                else:
                    lost.append(judged)
            judged += 1
        self._judged = judged
        for seq in lost:
            entry = unacked.pop(seq, None)
            if entry is None:
                continue  # parked twice at one send time (RTO tie)
            size = entry[0]
            self.inflight_bytes -= size
            self._lost.append(seq)
            self._lost_set.add(seq)
            self.losses_detected += 1
            self.cca.on_loss(now, seq, size)

    def _on_rto(self) -> None:
        self._rto_timer = None
        if not self._unacked:
            self._arm_rto()
            return
        self.timeouts += 1
        for seq in sorted(self._unacked):
            size, _ = self._unacked.pop(seq)
            self.inflight_bytes -= size
            if seq not in self._lost_set:
                self._lost.append(seq)
                self._lost_set.add(seq)
        self.cca.on_timeout(self.sim.now)
        self._arm_rto()
        self._try_send()

    # ------------------------------------------------------------------
    # Invariant sentinel hook (see repro.sim.invariants)
    # ------------------------------------------------------------------

    def invariant_errors(self):
        """Yield (kind, site, message) for violated sender invariants."""
        errors = []
        unacked_bytes = sum(entry[0] for entry in self._unacked.values())
        if unacked_bytes != self.inflight_bytes:
            errors.append((
                "conservation", "inflight",
                f"inflight_bytes={self.inflight_bytes} but unacked "
                f"packets hold {unacked_bytes} bytes"))
        if self.inflight_bytes < 0:
            errors.append((
                "conservation", "inflight_negative",
                f"inflight_bytes is negative: {self.inflight_bytes}"))
        judged = self._judged
        behind = [seq for seq in self._unacked if seq < judged]
        if behind:
            # The cursor never returns: without its _parked entry such a
            # packet is never declared lost and the flow stalls to RTO.
            parked = set(self._parked)
            adrift = [seq for seq in behind
                      if (self._unacked[seq][1], seq) not in parked]
            if adrift:
                errors.append((
                    "conservation", "parked",
                    f"{len(adrift)} unacked packet(s) below the loss "
                    f"cursor {judged} (first: seq {adrift[0]}) are not "
                    f"parked at their current send time"))
        if self.delivered_bytes > self.next_seq * self.mss + 1e-6:
            errors.append((
                "conservation", "delivered",
                f"delivered {self.delivered_bytes} unique bytes but only "
                f"{self.next_seq * self.mss} were ever created"))
        for name, value in (("min_rtt", self.min_rtt),
                            ("srtt", self.srtt),
                            ("latest_rtt", self.latest_rtt)):
            if value is None:
                continue
            if value != value or value <= 0.0 or (
                    name != "min_rtt" and math.isinf(value)):
                errors.append((
                    "sanity", name,
                    f"{name} must be positive and finite, got {value!r}"))
        return errors


class Receiver:
    """Receives data packets and emits (possibly delayed) ACKs.

    Args:
        sim: simulation engine.
        flow_id: flow this receiver belongs to.
        ack_every: emit one ACK per ``ack_every`` received packets.
        ack_timeout: flush pending ACKs after this long (None = only flush
            by count). Standard delayed-ACK behavior uses e.g. 40 ms.
    """

    def __init__(self, sim: Simulator, flow_id: int,
                 ack_every: int = 1,
                 ack_timeout: Optional[float] = None) -> None:
        if ack_every < 1:
            raise ConfigurationError(f"ack_every must be >= 1, got {ack_every}")
        self.sim = sim
        self.flow_id = flow_id
        self.ack_every = ack_every
        self.ack_timeout = ack_timeout
        self.ack_path: Optional[object] = None

        self.received_packets = 0
        self.received_bytes = 0.0       # unique payload bytes
        # Every seq below _expected has arrived; _ahead holds early ones.
        self._expected = 0
        self._ahead: Set[int] = set()
        self._pending: List[Packet] = []
        self._flush_timer: Optional[Event] = None

    def attach_ack_path(self, ack_path_entry: object) -> None:
        """Set the first reverse-path element ACKs are handed to."""
        self.ack_path = ack_path_entry

    def receive(self, packet: Packet, now: float) -> None:
        self.received_packets += 1
        seq = packet.seq
        expected = self._expected
        if seq == expected:
            self.received_bytes += packet.size
            expected += 1
            ahead = self._ahead
            while ahead and expected in ahead:
                ahead.remove(expected)
                expected += 1
            self._expected = expected
        elif seq > expected and seq not in self._ahead:
            self._ahead.add(seq)
            self.received_bytes += packet.size
        if self.ack_every == 1 and not self._pending:
            # Immediate-ACK fast path: one packet, one ACK, no pending
            # list bookkeeping. Field-for-field identical to _flush on a
            # single-packet batch.
            ack_path = self.ack_path
            if ack_path is None:
                return
            ack = Ack(self.flow_id, (seq,), packet.size, seq,
                      packet.sent_time, packet.delivered_at_send,
                      packet.delivered_time_at_send, now,
                      1 if packet.ecn_marked else 0)
            ack_path.receive(ack, now)
            return
        self._pending.append(packet)
        if len(self._pending) >= self.ack_every:
            self._flush(now)
        elif self.ack_timeout is not None and self._flush_timer is None:
            self._flush_timer = self.sim.schedule(self.ack_timeout,
                                                  self._on_flush_timer)

    def _on_flush_timer(self) -> None:
        self._flush_timer = None
        if self._pending:
            self._flush(self.sim.now)

    def _flush(self, now: float) -> None:
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        pending = self._pending
        if not pending or self.ack_path is None:
            self._pending = []
            return
        newest = pending[-1]
        acked_seqs = tuple(p.seq for p in pending)
        acked_bytes = sum(p.size for p in pending)
        ecn_count = sum(1 for p in pending if p.ecn_marked)
        ack = Ack(self.flow_id, acked_seqs, acked_bytes, newest.seq,
                  newest.sent_time, newest.delivered_at_send,
                  newest.delivered_time_at_send, now, ecn_count)
        self._pending = []
        self.ack_path.receive(ack, now)

    # ------------------------------------------------------------------
    # Invariant sentinel hook (see repro.sim.invariants)
    # ------------------------------------------------------------------

    def invariant_errors(self):
        """Yield (kind, site, message) for violated receiver invariants."""
        errors = []
        unique = self._expected + len(self._ahead)
        if self.received_packets < unique:
            errors.append((
                "conservation", "received_count",
                f"received_packets={self.received_packets} below unique "
                f"sequence count {unique}"))
        if self._ahead and min(self._ahead) <= self._expected:
            errors.append((
                "conservation", "ahead_above_cursor",
                f"early arrival {min(self._ahead)} is not above the "
                f"in-order cursor {self._expected}"))
        if self.received_bytes < 0:
            errors.append((
                "conservation", "received_bytes",
                f"received_bytes is negative: {self.received_bytes}"))
        return errors
