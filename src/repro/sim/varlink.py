"""Variable-rate bottleneck: trace-driven link capacity (Mahimahi-style).

The paper's model fixes the bottleneck rate C and notes that "when it
varies as on wireless links, designing a CCA only becomes harder". This
element provides the harder substrate for robustness experiments: a
FIFO queue whose drain rate follows a piecewise-constant schedule, plus
generators for synthetic cellular-like schedules.

A Mahimahi packet-delivery trace can be approximated by
:func:`rate_schedule_from_deliveries`.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .engine import Simulator
from .packet import Packet


class RateSchedule:
    """Piecewise-constant rate over time, cyclic after its last step."""

    def __init__(self, steps: Sequence[Tuple[float, float]],
                 period: Optional[float] = None) -> None:
        """``steps`` is a time-sorted list of (start_time, rate_bytes/s);
        the first start time must be 0. ``period`` makes the schedule
        repeat; None = hold the last rate forever."""
        if not steps:
            raise ConfigurationError("schedule must not be empty")
        times = [t for t, _ in steps]
        if times != sorted(times) or times[0] != 0.0:
            raise ConfigurationError(
                "schedule steps must be sorted and start at t=0")
        if any(rate <= 0 for _, rate in steps):
            raise ConfigurationError("schedule rates must be > 0")
        if period is not None and period <= times[-1]:
            raise ConfigurationError("period must exceed the last step")
        self.times = times
        self.rates = [r for _, r in steps]
        self.period = period

    def rate_at(self, t: float) -> float:
        if self.period is not None:
            t = t % self.period
        index = bisect_right(self.times, t) - 1
        return self.rates[max(index, 0)]

    def mean_rate(self) -> float:
        """Time-average over one period (or the step list's span)."""
        horizon = self.period if self.period is not None else (
            self.times[-1] if self.times[-1] > 0 else 1.0)
        total = 0.0
        for i, start in enumerate(self.times):
            end = self.times[i + 1] if i + 1 < len(self.times) else horizon
            total += self.rates[i] * max(end - start, 0.0)
        return total / horizon


def square_schedule(low: float, high: float, period: float,
                    duty: float = 0.5) -> RateSchedule:
    """Alternates between high (first) and low rates each period."""
    if not 0 < duty < 1:
        raise ConfigurationError("duty must be in (0, 1)")
    return RateSchedule([(0.0, high), (period * duty, low)],
                        period=period)


def cellular_schedule(mean_mbps: float = 12.0, period: float = 2.0,
                      spread: float = 0.6, steps: int = 8,
                      seed: int = 0) -> RateSchedule:
    """A seeded random-walk schedule mimicking cellular capacity.

    Generates ``steps`` rate levels per period, log-normal-ish around
    the mean with relative spread ``spread``, repeating cyclically so
    long runs stay stationary.
    """
    rng = random.Random(seed)
    mean = mean_mbps * 1e6 / 8
    level = mean
    entries: List[Tuple[float, float]] = []
    for i in range(steps):
        factor = math.exp(rng.uniform(-spread, spread))
        level = 0.5 * level + 0.5 * mean * factor
        entries.append((period * i / steps, max(level, mean * 0.1)))
    return RateSchedule(entries, period=period)


def rate_schedule_from_deliveries(delivery_times_ms: Sequence[float],
                                  mss: int = 1500,
                                  bucket_ms: float = 100.0
                                  ) -> RateSchedule:
    """Approximate a Mahimahi delivery trace (one packet-delivery
    opportunity per listed millisecond) as a bucketed rate schedule."""
    if not delivery_times_ms:
        raise ConfigurationError("empty delivery trace")
    horizon = max(delivery_times_ms)
    buckets: Dict[int, int] = {}
    for t in delivery_times_ms:
        buckets[int(t // bucket_ms)] = buckets.get(int(t // bucket_ms),
                                                   0) + 1
    steps = []
    n_buckets = int(horizon // bucket_ms) + 1
    for b in range(n_buckets):
        count = buckets.get(b, 0)
        rate = max(count * mss / (bucket_ms / 1e3), mss)  # >= 1 pkt/s
        steps.append((b * bucket_ms / 1e3, rate))
    return RateSchedule(steps, period=n_buckets * bucket_ms / 1e3)


class VariableRateQueue:
    """FIFO bottleneck whose drain rate follows a :class:`RateSchedule`.

    Service is per-packet: each packet's transmission time uses the rate
    in effect when its service starts (a good approximation when steps
    are long relative to packet times). Droptail buffering and ECN
    threshold marking match :class:`~repro.sim.queue.BottleneckQueue`.
    """

    def __init__(self, sim: Simulator, schedule: RateSchedule,
                 buffer_bytes: Optional[float] = None,
                 ecn_threshold_bytes: Optional[float] = None) -> None:
        self.sim = sim
        self.schedule = schedule
        self.buffer_bytes = buffer_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.ecn_marks = 0
        self._sinks: Dict[int, object] = {}
        self._queue: Deque[Packet] = deque()
        self._queued_bytes = 0.0
        self._busy = False
        self._in_service: Optional[Packet] = None
        self.drops = 0
        self.forwarded = 0
        self.forwarded_bytes = 0.0

    # Keep the BottleneckQueue interface so recorders/scenarios compose.
    @property
    def rate(self) -> float:
        """The schedule's mean rate (used for utilization reporting)."""
        return self.schedule.mean_rate()

    def register_sink(self, flow_id: int, sink: object) -> None:
        self._sinks[flow_id] = sink

    @property
    def queued_bytes(self) -> float:
        return self._queued_bytes

    @property
    def backlog_bytes(self) -> float:
        backlog = self._queued_bytes
        if self._in_service is not None:
            backlog += self._in_service.size
        return backlog

    def receive(self, packet: Packet, now: float) -> None:
        if (self.buffer_bytes is not None
                and self._queued_bytes + packet.size > self.buffer_bytes):
            self.drops += 1
            return
        self._queue.append(packet)
        self._queued_bytes += packet.size
        if not self._busy:
            self._start_service()

    def _start_service(self) -> None:
        packet = self._queue.popleft()
        self._queued_bytes -= packet.size
        self._in_service = packet
        self._busy = True
        rate_now = self.schedule.rate_at(self.sim.now)
        self.sim.post(packet.size / rate_now, self._finish_service)

    def _finish_service(self) -> None:
        packet = self._in_service
        assert packet is not None
        self._in_service = None
        if (self.ecn_threshold_bytes is not None
                and self._queued_bytes > self.ecn_threshold_bytes):
            packet.ecn_marked = True
            self.ecn_marks += 1
        self.forwarded += 1
        self.forwarded_bytes += packet.size
        sink = self._sinks.get(packet.flow_id)
        if sink is not None:
            sink.receive(packet, self.sim.now)
        if self._queue:
            self._start_service()
        else:
            self._busy = False
