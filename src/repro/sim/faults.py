"""Fault injection: bursty loss, outages, flaps, reordering, duplication.

The paper's model covers smooth non-congestive jitter, fixed random loss,
and ACK aggregation. Real paths misbehave in messier ways — bursty
Gilbert-Elliott loss, link blackouts and flaps, packet reordering and
duplication — and the BBR evaluation literature shows these conditions
are decisive for CCA behaviour. This module provides those impairments
as composable path elements (duck-typed sinks exposing
``receive(packet, now)``, like :mod:`repro.sim.jitter` and
:mod:`repro.sim.loss`), all seeded and deterministic so experiments
replay exactly.

None of them knows about time windows: :class:`WindowGate` is the one
place that does. :func:`repro.sim.path.gated` puts a gate in front of
any element factory, so "blackout from 5 s to 7 s" is a
:class:`BlackoutElement` gated ``[5, 7)`` in a flow's ``data_elements``
(or a link's ``elements``, where every flow crossing it meets it).
"""

from __future__ import annotations

import random

from ..errors import ConfigurationError
from .engine import Simulator
from .packet import Packet


class GilbertElliottLossElement:
    """Bursty loss from the classic two-state Gilbert-Elliott chain.

    The element is in a *good* or *bad* state; each packet first draws a
    state transition, then a loss decision at that state's loss rate.
    ``p_enter_bad``/``p_exit_bad`` are per-packet transition
    probabilities, so mean burst length is ``1 / p_exit_bad`` packets
    and the stationary bad-state probability is
    ``p_enter_bad / (p_enter_bad + p_exit_bad)``.

    A seeded :class:`random.Random` keeps runs reproducible.
    """

    def __init__(self, sim: Simulator, sink: object, p_enter_bad: float,
                 p_exit_bad: float, loss_good: float = 0.0,
                 loss_bad: float = 1.0, seed: int = 0) -> None:
        for name, p in (("p_enter_bad", p_enter_bad),
                        ("p_exit_bad", p_exit_bad)):
            if not 0 < p <= 1:
                raise ConfigurationError(
                    f"{name} must be in (0, 1], got {p}")
        for name, p in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0 <= p <= 1:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {p}")
        self.sim = sim
        self.sink = sink
        self.p_enter_bad = p_enter_bad
        self.p_exit_bad = p_exit_bad
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self._rng = random.Random(seed)
        self._bad = False
        self.dropped = 0
        self.forwarded = 0

    @staticmethod
    def from_mean_loss(sim: Simulator, sink: object, mean_loss: float,
                       burst_packets: float = 4.0, seed: int = 0
                       ) -> "GilbertElliottLossElement":
        """Build a chain whose stationary loss rate is ``mean_loss`` with
        mean bad-state bursts of ``burst_packets`` packets (loss_bad=1)."""
        if not 0 < mean_loss < 1:
            raise ConfigurationError(
                f"mean_loss must be in (0, 1), got {mean_loss}")
        if burst_packets < 1:
            raise ConfigurationError(
                f"burst_packets must be >= 1, got {burst_packets}")
        p_exit = 1.0 / burst_packets
        p_enter = mean_loss * p_exit / (1.0 - mean_loss)
        return GilbertElliottLossElement(sim, sink,
                                         p_enter_bad=min(p_enter, 1.0),
                                         p_exit_bad=p_exit, seed=seed)

    def receive(self, packet: Packet, now: float) -> None:
        if self._bad:
            if self._rng.random() < self.p_exit_bad:
                self._bad = False
        elif self._rng.random() < self.p_enter_bad:
            self._bad = True
        loss = self.loss_bad if self._bad else self.loss_good
        if loss > 0 and self._rng.random() < loss:
            self.dropped += 1
            return
        self.forwarded += 1
        self.sink.receive(packet, now)


class BlackoutElement:
    """Drops everything: a dead link.

    Gate it (:func:`repro.sim.path.gated`) to model an outage with a
    beginning and an end — handover gaps, tunnel entries, mid-run cable
    pulls.
    """

    def __init__(self, sim: Simulator, sink: object) -> None:
        self.sim = sim
        self.sink = sink
        self.dropped = 0

    def receive(self, packet: Packet, now: float) -> None:
        self.dropped += 1


class LinkFlapElement:
    """Periodic up/down link flapping: drops while the link is down.

    Each ``period`` the link is up for ``period - down_time`` seconds
    then down for ``down_time``. ``phase`` shifts the cycle so flows can
    see staggered flaps. Fully deterministic.
    """

    def __init__(self, sim: Simulator, sink: object, period: float,
                 down_time: float, phase: float = 0.0) -> None:
        if period <= 0:
            raise ConfigurationError(f"period must be > 0, got {period}")
        if not 0 < down_time < period:
            raise ConfigurationError(
                f"down_time must be in (0, period), got {down_time}")
        self.sim = sim
        self.sink = sink
        self.period = period
        self.down_time = down_time
        self.phase = phase
        self.dropped = 0
        self.forwarded = 0

    def is_down(self, now: float) -> bool:
        position = (now + self.phase) % self.period
        return position >= self.period - self.down_time

    def receive(self, packet: Packet, now: float) -> None:
        if self.is_down(now):
            self.dropped += 1
            return
        self.forwarded += 1
        self.sink.receive(packet, now)


class ReorderElement:
    """Delay-swap reordering: holds back a random subset of packets.

    With probability ``reorder_prob`` a packet is delayed by
    ``extra_delay`` while later arrivals pass straight through, so any
    packet arriving within the hold time overtakes it — the classic
    "late straggler" reordering pattern. Deliberately *not* a
    :class:`~repro.sim.jitter.JitterElement`: those enforce the paper's
    no-reordering invariant, which this element exists to break.
    """

    def __init__(self, sim: Simulator, sink: object, reorder_prob: float,
                 extra_delay: float, seed: int = 0) -> None:
        if not 0 <= reorder_prob <= 1:
            raise ConfigurationError(
                f"reorder_prob must be in [0, 1], got {reorder_prob}")
        if extra_delay <= 0:
            raise ConfigurationError(
                f"extra_delay must be > 0, got {extra_delay}")
        self.sim = sim
        self.sink = sink
        self.reorder_prob = reorder_prob
        self.extra_delay = extra_delay
        self._rng = random.Random(seed)
        self.reordered = 0
        self.forwarded = 0

    def receive(self, packet: Packet, now: float) -> None:
        self.forwarded += 1
        if self.reorder_prob > 0 and self._rng.random() < self.reorder_prob:
            self.reordered += 1
            release = now + self.extra_delay
            self.sim.post_at(release, self.sink.receive, packet, release)
            return
        self.sink.receive(packet, now)


class DuplicateElement:
    """Delivers a random subset of packets twice (back to back).

    Receivers dedup by sequence number, so duplicates cost ACK chatter
    and can trigger spurious dup-ACK loss logic — exactly the stress
    this element is for.
    """

    def __init__(self, sim: Simulator, sink: object, dup_prob: float,
                 seed: int = 0) -> None:
        if not 0 <= dup_prob <= 1:
            raise ConfigurationError(
                f"dup_prob must be in [0, 1], got {dup_prob}")
        self.sim = sim
        self.sink = sink
        self.dup_prob = dup_prob
        self._rng = random.Random(seed)
        self.duplicated = 0
        self.forwarded = 0

    def receive(self, packet: Packet, now: float) -> None:
        self.forwarded += 1
        duplicate = (self.dup_prob > 0
                     and self._rng.random() < self.dup_prob)
        if duplicate:
            self.duplicated += 1
        self.sink.receive(packet, now)
        if duplicate:
            self.sink.receive(packet, now)


class WindowGate:
    """Routes packets through an impairment only inside ``[start, end)``.

    The impairment element's own sink is the bypass path, so packets
    that survive it (or are held by it) continue downstream either way.
    """

    def __init__(self, sim: Simulator, impaired: object, bypass: object,
                 start: float, end: float) -> None:
        self.sim = sim
        self.impaired = impaired
        self.bypass = bypass
        self.start = start
        self.end = end

    def receive(self, packet: Packet, now: float) -> None:
        if self.start <= now < self.end:
            self.impaired.receive(packet, now)
        else:
            self.bypass.receive(packet, now)
