"""Host-speed calibration: the ``spin()`` kernel and the op clock.

A shared sandbox changes speed under the benchmark (noisy neighbours,
frequency, steal), so a raw time measures the host as much as the
program. Every timed op is therefore bracketed by ``spin()``, a fixed
pure-Python kernel with the simulator's instruction mix (a heap of
``(time, seq, event)`` tuples, small slotted objects allocated and
dropped per packet, attribute/dict/deque updates, bound-method
dispatch, float arithmetic), and the op's CPU seconds are rescaled by
how fast the spins next to it ran:

    f    = SPIN_REF_MS / mean(spin_before, spin_after)
    busy = CPU seconds of this process and the children it reaped
    idle = max(0, wall - busy)
    cal  = idle + busy * f

CPU work is rescaled to reference host speed; sleeps and timers are
not. This module never imports ``repro``: the kernel must not change
when the program does.
"""

from __future__ import annotations

import heapq
import resource
import statistics
from collections import deque
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

#: CPU milliseconds one ``spin()`` takes on the reference host. A scale
#: constant only: it is committed, never re-derived per run, so parent
#: and change are always rescaled to the same speed.
SPIN_REF_MS = 35.0

SPIN_PACKETS = 28_000

#: A run whose spin IQR exceeds this share of the spin median is marked
#: ``unsteady``: the host moved too much under it.
UNSTEADY_IQR_RATIO = 0.25


class _Event:
    __slots__ = ("callback", "arg", "cancelled")

    def __init__(self, callback: Callable[[Any], None], arg: Any) -> None:
        self.callback = callback
        self.arg = arg
        self.cancelled = False


class _Packet:
    __slots__ = ("seq", "size", "sent")

    def __init__(self, seq: int, size: int, sent: float) -> None:
        self.seq = seq
        self.size = size
        self.sent = sent


class _Flow:
    """A toy sender: enough state churn to look like ``sim.host``."""

    def __init__(self) -> None:
        self.now = 0.0
        self.inflight: Dict[int, _Packet] = {}
        self.queue: deque = deque()
        self.delivered = 0
        self.cwnd = 10.0
        self.srtt = 0.05
        self.samples: List[Tuple[float, float, float]] = []

    def send(self, seq: int) -> _Packet:
        packet = _Packet(seq, 1500, self.now)
        self.inflight[seq] = packet
        self.queue.append(packet)
        return packet

    def deliver(self, packet: _Packet) -> None:
        self.queue.popleft()
        rtt = self.now - packet.sent
        self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.delivered += packet.size
        del self.inflight[packet.seq]
        if packet.seq & 7 == 0:
            self.samples.append((self.now, self.srtt, self.cwnd))
        self.cwnd = min(self.cwnd + 1.0 / self.cwnd, 64.0)


def spin(packets: int = SPIN_PACKETS) -> float:
    """Run the fixed kernel once; returns its CPU time in ms."""
    start = process_time()
    heap: List[Tuple[float, int, _Event]] = []
    push, pop = heapq.heappush, heapq.heappop
    flow = _Flow()
    for seq in range(packets):
        now = flow.now = seq * 1e-3
        packet = flow.send(seq)
        push(heap, (now + 0.01 + (seq % 7) * 1e-4, seq,
                    _Event(flow.deliver, packet)))
        while heap and heap[0][0] <= now:
            event = pop(heap)[2]
            if not event.cancelled:
                event.callback(event.arg)
    while heap:
        event = pop(heap)[2]
        event.callback(event.arg)
    return (process_time() - start) * 1e3


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class Sample(NamedTuple):
    """One timed op. All times in ms; ``*_cal`` at reference speed."""

    wall: float
    cal: float
    cpu_cal: float
    factor: float


def setup_spin() -> float:
    """The spin either side of a set-up: it is one long sample per
    worker, so its factor gets more than an op's single spin a side."""
    return statistics.fmean(spin() for _ in range(3))


def factor(before: float, after: float) -> float:
    """How much faster than this host the reference host runs."""
    return SPIN_REF_MS / ((before + after) / 2.0)


class OpClock:
    """Times ops between spins; the spin after one op precedes the next."""

    def __init__(self) -> None:
        self.spins: List[float] = [spin()]

    def measure(self, op: Callable[[], Any]) -> Tuple[Sample, Any]:
        """Run ``op`` once; returns its sample and whatever it returned."""
        before = self.spins[-1]
        wall0, busy0 = perf_counter(), cpu_seconds()
        output = op()
        wall = perf_counter() - wall0
        busy = cpu_seconds() - busy0
        after = spin()
        self.spins.append(after)
        return calibrate(wall, busy, factor(before, after)), output


def calibrate(wall_s: float, busy_s: float, factor: float) -> Sample:
    idle = max(0.0, wall_s - busy_s)
    return Sample(wall=wall_s * 1e3, cal=(idle + busy_s * factor) * 1e3,
                  cpu_cal=busy_s * factor * 1e3, factor=factor)


def p90(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


def steadiness(spins: Sequence[float]) -> Tuple[float, float, bool]:
    """``(spin p50 in ms, IQR / p50, unsteady?)`` for one run's spins."""
    q1, q2, q3 = statistics.quantiles(spins, n=4)
    ratio = (q3 - q1) / q2
    return q2, ratio, ratio > UNSTEADY_IQR_RATIO
