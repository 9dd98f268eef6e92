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

:class:`FaultSchedule` scripts time-windowed impairments onto a flow's
path or the shared bottleneck: each window activates one impairment
between ``start`` and ``end`` and is bypassed outside it. Wire a
schedule in through :class:`repro.sim.network.FlowConfig.fault_schedule`
(per-flow data path) or
:class:`repro.sim.network.LinkConfig.fault_schedule` (every flow,
before the shared queue).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from .engine import Simulator
from .packet import Packet
from .path import ElementFactory


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


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

    def expected_loss_rate(self) -> float:
        """Stationary per-packet loss probability of the chain."""
        pi_bad = self.p_enter_bad / (self.p_enter_bad + self.p_exit_bad)
        return pi_bad * self.loss_bad + (1 - pi_bad) * self.loss_good

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
    """Drops everything inside scheduled outage windows.

    ``windows`` is a list of ``(start, end)`` pairs in seconds,
    time-sorted and non-overlapping. Models full link blackouts
    (handover gaps, tunnel entries, mid-run cable pulls).
    """

    def __init__(self, sim: Simulator, sink: object,
                 windows: Sequence[Tuple[float, float]]) -> None:
        spans = [(float(a), float(b)) for a, b in windows]
        for start, end in spans:
            if end <= start:
                raise ConfigurationError(
                    f"blackout window must have end > start, got "
                    f"({start}, {end})")
        if spans != sorted(spans):
            raise ConfigurationError("blackout windows must be time-sorted")
        for (_, end_prev), (start_next, _) in zip(spans, spans[1:]):
            if start_next < end_prev:
                raise ConfigurationError(
                    "blackout windows must not overlap")
        self.sim = sim
        self.sink = sink
        self.windows = spans
        self.dropped = 0
        self.forwarded = 0

    def in_blackout(self, now: float) -> bool:
        for start, end in self.windows:
            if start <= now < end:
                return True
            if start > now:
                break
        return False

    def receive(self, packet: Packet, now: float) -> None:
        if self.in_blackout(now):
            self.dropped += 1
            return
        self.forwarded += 1
        self.sink.receive(packet, now)


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
            self.sim.schedule_at(release, self.sink.receive, packet,
                                 release)
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


class CorruptionElement:
    """Random corruption-drop: frames failing their checksum vanish.

    Functionally a drop, but counted separately from congestive or
    Gilbert-Elliott loss so experiments can attribute damage. The
    seeded RNG keeps runs reproducible.
    """

    def __init__(self, sim: Simulator, sink: object, corrupt_prob: float,
                 seed: int = 0) -> None:
        if not 0 <= corrupt_prob < 1:
            raise ConfigurationError(
                f"corrupt_prob must be in [0, 1), got {corrupt_prob}")
        self.sim = sim
        self.sink = sink
        self.corrupt_prob = corrupt_prob
        self._rng = random.Random(seed)
        self.corrupted = 0
        self.forwarded = 0

    def receive(self, packet: Packet, now: float) -> None:
        if self.corrupt_prob > 0 and self._rng.random() < self.corrupt_prob:
            self.corrupted += 1
            return
        self.forwarded += 1
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


@dataclass
class FaultWindow:
    """One scripted impairment: ``factory`` is active in [start, end)."""

    start: float
    end: float
    factory: ElementFactory

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"fault window needs 0 <= start < end, got "
                f"({self.start}, {self.end})")


class FaultSchedule:
    """Scripts time-windowed impairments onto a path.

    Build one with the fluent helpers and attach it to a
    :class:`~repro.sim.network.FlowConfig` (per-flow data path) or
    :class:`~repro.sim.network.LinkConfig` (shared bottleneck)::

        faults = (FaultSchedule(seed=7)
                  .blackout(5.0, 6.0)
                  .gilbert_elliott(10.0, 30.0, mean_loss=0.02)
                  .reorder(30.0, 40.0, prob=0.05, extra_delay=0.01))
        FlowConfig(cca_factory=BBR, rm=rm, fault_schedule=faults)

    Every stochastic element derives its seed deterministically from
    the schedule seed and the window index, so a schedule replays
    identically run to run.
    """

    def __init__(self, windows: Sequence[FaultWindow] = (),
                 seed: int = 0) -> None:
        self.windows: List[FaultWindow] = list(windows)
        self.seed = seed
        self._built: List[Tuple[FaultWindow, object]] = []

    def _window_seed(self) -> int:
        # Stable per-window seed: schedule seed plus position.
        return self.seed * 1000 + len(self.windows)

    def add(self, start: float, end: float,
            factory: ElementFactory) -> "FaultSchedule":
        """Activate an arbitrary element factory in ``[start, end)``."""
        self.windows.append(FaultWindow(start, end, factory))
        return self

    def blackout(self, start: float, end: float) -> "FaultSchedule":
        """Total outage: every packet in the window is dropped."""
        return self.add(start, end,
                        lambda sim, sink, s=start, e=end:
                        BlackoutElement(sim, sink, [(s, e)]))

    def flap(self, start: float, end: float, period: float,
             down_time: float, phase: float = 0.0) -> "FaultSchedule":
        """Periodic up/down flapping inside the window."""
        # Validate eagerly so callers fail at schedule construction,
        # not later inside build_topology.
        _require(period > 0, f"period must be > 0, got {period}")
        _require(0 < down_time < period,
                 f"down_time must be in (0, period), got {down_time}")
        return self.add(start, end,
                        lambda sim, sink, p=period, d=down_time, ph=phase:
                        LinkFlapElement(sim, sink, p, d, phase=ph))

    def gilbert_elliott(self, start: float, end: float, mean_loss: float,
                        burst_packets: float = 4.0) -> "FaultSchedule":
        """Bursty loss at a target stationary rate inside the window."""
        _require(0 < mean_loss < 1,
                 f"mean_loss must be in (0, 1), got {mean_loss}")
        _require(burst_packets >= 1,
                 f"burst_packets must be >= 1, got {burst_packets}")
        seed = self._window_seed()
        return self.add(start, end,
                        lambda sim, sink, ml=mean_loss, bp=burst_packets,
                        sd=seed: GilbertElliottLossElement.from_mean_loss(
                            sim, sink, ml, burst_packets=bp, seed=sd))

    def reorder(self, start: float, end: float, prob: float,
                extra_delay: float) -> "FaultSchedule":
        """Delay-swap reordering inside the window."""
        _require(0 <= prob <= 1, f"prob must be in [0, 1], got {prob}")
        _require(extra_delay > 0,
                 f"extra_delay must be > 0, got {extra_delay}")
        seed = self._window_seed()
        return self.add(start, end,
                        lambda sim, sink, p=prob, d=extra_delay, sd=seed:
                        ReorderElement(sim, sink, p, d, seed=sd))

    def duplicate(self, start: float, end: float,
                  prob: float) -> "FaultSchedule":
        """Random packet duplication inside the window."""
        _require(0 <= prob <= 1, f"prob must be in [0, 1], got {prob}")
        seed = self._window_seed()
        return self.add(start, end,
                        lambda sim, sink, p=prob, sd=seed:
                        DuplicateElement(sim, sink, p, seed=sd))

    def corrupt(self, start: float, end: float,
                prob: float) -> "FaultSchedule":
        """Corruption-drop inside the window."""
        _require(0 <= prob <= 1, f"prob must be in [0, 1], got {prob}")
        seed = self._window_seed()
        return self.add(start, end,
                        lambda sim, sink, p=prob, sd=seed:
                        CorruptionElement(sim, sink, p, seed=sd))

    def build(self, sim: Simulator, terminal: object) -> object:
        """Wire the schedule in front of ``terminal``.

        Returns the entry element. Windows are chained in order, each
        behind a :class:`WindowGate`, so overlapping windows compose
        (a packet traverses every active impairment). Built elements
        are kept on the schedule for post-run inspection via
        :meth:`elements`.
        """
        self._built = []
        entry: object = terminal
        for window in reversed(self.windows):
            impaired = window.factory(sim, entry)
            self._built.append((window, impaired))
            entry = WindowGate(sim, impaired, entry, window.start,
                               window.end)
        self._built.reverse()
        return entry

    def elements(self) -> List[Tuple[FaultWindow, object]]:
        """The (window, element) pairs from the most recent build."""
        return list(self._built)

    def factory(self) -> ElementFactory:
        """Expose the whole schedule as a single ElementFactory, so it
        can slot into ``FlowConfig.data_elements``/``ack_elements``."""
        return self.build
