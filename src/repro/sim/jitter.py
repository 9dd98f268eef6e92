"""Non-congestive delay elements (the Section 3 jitter component).

Each element delays the packets (or ACKs) of one flow by an extra,
bounded, *non-reordering* amount. Per the paper's model, the extra delay
eta is anywhere in ``[0, D]``, is non-deterministic but not random (the
experiments use deterministic schedules), and release times are monotone
in arrival order.

All elements share the no-reordering clamp: a packet's release time is at
least the release time of the previously forwarded packet.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Sequence, Tuple

from ..errors import ConfigurationError
from .engine import Simulator
from .packet import Packet


class JitterElement:
    """Base class: forwards packets to ``sink`` after extra delay.

    Subclasses implement :meth:`extra_delay` returning eta >= 0 for the
    given packet at the given arrival time. The base class enforces the
    no-reordering invariant and tracks the maximum eta ever applied (so
    experiments can report the realized jitter bound D).
    """

    def __init__(self, sim: Simulator, sink: object) -> None:
        self.sim = sim
        self.sink = sink
        self._last_release = -math.inf
        self.max_applied: float = 0.0
        self.forwarded: int = 0

    def extra_delay(self, packet: Packet, now: float) -> float:
        """Extra non-congestive delay for this packet, in seconds."""
        raise NotImplementedError

    def receive(self, packet: Packet, now: float) -> None:
        eta = self.extra_delay(packet, now)
        if not eta >= 0:
            raise ConfigurationError(
                f"{type(self).__name__} produced delay {eta!r}; an extra "
                f"delay must be >= 0")
        release = now + eta
        if release < self._last_release:
            release = self._last_release
        applied = release - now
        if applied > self.max_applied:
            self.max_applied = applied
        self._last_release = release
        self.forwarded += 1
        self.sim.post_at(release, self.sink.receive, packet, release)


class NoJitter(JitterElement):
    """Pass-through element (eta = 0 for every packet)."""

    def extra_delay(self, packet: Packet, now: float) -> float:
        return 0.0


class ConstantJitter(JitterElement):
    """Delays every packet by the same constant eta."""

    def __init__(self, sim: Simulator, sink: object, eta: float) -> None:
        super().__init__(sim, sink)
        if not eta >= 0:
            raise ConfigurationError(f"constant jitter must be >= 0, got {eta}")
        self.eta = eta

    def extra_delay(self, packet: Packet, now: float) -> float:
        return self.eta


class StepTraceJitter(JitterElement):
    """Piecewise-constant jitter from a list of ``(time, eta)`` steps.

    ``steps`` must be sorted by time; eta for ``now`` is the value of the
    last step at or before ``now`` (0 before the first step). This is the
    trace-playback element: the theorem constructions replay recorded
    delay trajectories through it, in the fluid model and in packets
    (:func:`repro.core.emulation.step_trace`). Both engines ask at
    non-decreasing times, so the lookup is a cursor that steps forward
    and bisects only when ``now`` jumps more than one step or goes
    backwards.
    """

    def __init__(self, sim: Simulator, sink: object,
                 steps: Sequence[Tuple[float, float]]) -> None:
        super().__init__(sim, sink)
        times = [t for t, _ in steps]
        if times != sorted(times):
            raise ConfigurationError("jitter trace steps must be time-sorted")
        if any(eta < 0 for _, eta in steps):
            raise ConfigurationError("jitter trace values must be >= 0")
        self.steps: List[Tuple[float, float]] = list(steps)
        self._times = times
        #: eta from each step on, after the 0.0 before the first step.
        self._etas = [0.0] + [eta for _, eta in steps]
        #: ``bisect_right(self._times, q)`` for the last query ``q``.
        self._index = 0

    def extra_delay(self, packet: Packet, now: float) -> float:
        times = self._times
        index = self._index
        if index < len(times) and times[index] <= now:
            index += 1
            if index < len(times) and times[index] <= now:
                index = bisect_right(times, now, index)
            self._index = index
        elif index and times[index - 1] > now:  # went backwards
            index = self._index = bisect_right(times, now, 0, index)
        return self._etas[index]


class SquareWaveJitter(JitterElement):
    """Alternates between ``high`` and 0 with a given period and duty cycle.

    A simple stand-in for on/off scheduling effects (Wi-Fi contention,
    OS scheduling bursts).
    """

    def __init__(self, sim: Simulator, sink: object, high: float,
                 period: float, duty: float = 0.5, phase: float = 0.0
                 ) -> None:
        super().__init__(sim, sink)
        if high < 0 or period <= 0 or not 0 <= duty <= 1:
            raise ConfigurationError("invalid square wave parameters")
        self.high = high
        self.period = period
        self.duty = duty
        self.phase = phase

    def extra_delay(self, packet: Packet, now: float) -> float:
        position = ((now + self.phase) % self.period) / self.period
        return self.high if position < self.duty else 0.0


class AckAggregationJitter(JitterElement):
    """Holds packets and releases them only at multiples of ``period``.

    This models link-layer ACK aggregation (Wi-Fi) and is the element the
    paper uses against PCC Vivace in Section 5.3: "ACKs are received only
    at integer multiples of 60 ms, preventing finer delay measurement."
    The applied jitter is bounded by ``period``.
    """

    def __init__(self, sim: Simulator, sink: object, period: float) -> None:
        super().__init__(sim, sink)
        if period <= 0:
            raise ConfigurationError(f"period must be > 0, got {period}")
        self.period = period

    def extra_delay(self, packet: Packet, now: float) -> float:
        next_boundary = math.ceil(now / self.period - 1e-12) * self.period
        return max(0.0, next_boundary - now)


class ExemptFirstJitter(JitterElement):
    """Constant jitter for every packet except listed sequence numbers.

    Models the Copa scenario of Section 5.1: one packet traverses the
    path 1 ms faster than every other, poisoning the min-RTT estimate.
    (Equivalently: the base path includes ``eta`` of constant
    non-congestive delay, and one packet skips it.)
    """

    def __init__(self, sim: Simulator, sink: object, eta: float,
                 exempt_seqs: Sequence[int]) -> None:
        super().__init__(sim, sink)
        if eta < 0:
            raise ConfigurationError(f"eta must be >= 0, got {eta}")
        self.eta = eta
        self.exempt_seqs = frozenset(exempt_seqs)

    def extra_delay(self, packet: Packet, now: float) -> float:
        if packet.seq in self.exempt_seqs:
            return 0.0
        return self.eta


class TokenBucketJitter(JitterElement):
    """A token-bucket shaper that is not a persistent bottleneck.

    Tokens accrue at ``rate`` bytes/s up to ``burst`` bytes. A packet
    leaves once enough tokens are available. When the long-run arrival
    rate stays below ``rate`` this only adds transient (non-congestive)
    delay, matching the paper's list of jitter sources.
    """

    def __init__(self, sim: Simulator, sink: object, rate: float,
                 burst: float) -> None:
        super().__init__(sim, sink)
        if rate <= 0 or burst <= 0:
            raise ConfigurationError("token bucket rate/burst must be > 0")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last_update = 0.0

    def extra_delay(self, packet: Packet, now: float) -> float:
        elapsed = now - self._last_update
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last_update = now
        if self._tokens >= packet.size:
            self._tokens -= packet.size
            return 0.0
        deficit = packet.size - self._tokens
        wait = deficit / self.rate
        self._tokens = 0.0
        # Tokens earned during the wait are consumed by this packet.
        self._last_update = now + wait
        return wait
