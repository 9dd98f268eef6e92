"""Time-series recording for flows and queues.

A flow recorder reads its sender's per-ACK RTT log (``Sender.rtt_times``
/ ``rtt_values``); one :class:`Sampler` event per interval samples
every recorder of a scenario. Everything is kept in compact
``array('d')`` buffers (8 bytes per sample instead of a boxed float
per entry), so downstream analysis can turn them into numpy arrays
zero-copy when needed. The buffers behave like read-only sequences of
floats; ``pacing_values`` stores NaN where the CCA reports no pacing
rate (the old ``None`` entries).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

from .engine import Simulator
from .host import Receiver, Sender
from .queue import BottleneckQueue

_NAN = float("nan")


class FlowRecorder:
    """Records per-ACK RTT samples and periodic cwnd/rate/delivery samples.

    Attributes populated during the run:
        rtt_times / rtt_values: one entry per ACK processed (the
            sender's own log).
        sample_times / cwnd_values / pacing_values / delivered_values /
            received_values: one entry per ``sample_interval``
            (``received_values`` stays empty without a receiver;
            ``pacing_values`` holds NaN where the CCA is unpaced).
    """

    def __init__(self, sender: Sender, sample_interval: float = 0.05,
                 receiver: Receiver = None) -> None:
        self.sender = sender
        self.receiver = receiver
        self.sample_interval = sample_interval

        self.rtt_times = sender.rtt_times
        self.rtt_values = sender.rtt_values
        self.sample_times = array("d")
        self.cwnd_values = array("d")
        self.pacing_values = array("d")
        self.delivered_values = array("d")
        self.received_values = array("d")

    def sample(self, now: float) -> None:
        sender = self.sender
        cca = sender.cca
        self.sample_times.append(now)
        self.cwnd_values.append(cca.cwnd_bytes)
        pacing = cca.pacing_rate
        self.pacing_values.append(_NAN if pacing is None else pacing)
        self.delivered_values.append(sender.delivered_bytes)
        if self.receiver is not None:
            self.received_values.append(self.receiver.received_bytes)

    def throughput_between(self, t0: float, t1: float) -> float:
        """Average delivered rate (bytes/s) over the window [t0, t1].

        Uses the periodic delivered-bytes samples; t0/t1 snap to the
        nearest recorded samples.
        """
        return self._rate_between(self.delivered_values, t0, t1)

    def goodput_between(self, t0: float, t1: float) -> float:
        """Average receiver unique-bytes rate over [t0, t1].

        Requires the recorder to have been built with a receiver;
        returns 0.0 otherwise.
        """
        return self._rate_between(self.received_values, t0, t1)

    def delivered_since(self, t0: float, t1: float
                        ) -> Tuple[List[float], List[float]]:
        """The window's sample times and the bytes delivered since t0.

        The times are the samples inside ``(t0, t1)``, then ``t1``; the
        bytes snap as :meth:`throughput_between` snaps them, so the last
        entry over ``t1 - t0`` is exactly that method's rate.
        """
        times, values = self.sample_times, self.delivered_values
        first = bisect_right(times, t0)
        inner = bisect_left(times, t1)
        start = self._value_at(values, t0)
        curve = [value - start for value in values[first:inner]]
        curve.append(self._value_at(values, t1) - start)
        return [*times[first:inner], t1], curve

    def _rate_between(self, values, t0: float, t1: float) -> float:
        if not self.sample_times or not values or t1 <= t0:
            return 0.0
        d0 = self._value_at(values, t0)
        d1 = self._value_at(values, t1)
        return max(0.0, (d1 - d0) / (t1 - t0))

    def _value_at(self, values, t: float) -> float:
        # The last sample at or before t; sample times are sorted.
        index = bisect_right(self.sample_times, t, 0,
                             min(len(self.sample_times), len(values)))
        return values[index - 1] if index else 0.0

    def rtt_window_stats(self, t0: float, t1: float
                         ) -> Tuple[float, float, float]:
        """(mean, min, max) of RTT samples with ``t0 <= time <= t1``.

        Returns NaNs when the window holds no samples. ACK times are
        nondecreasing, so the window is one contiguous slice.
        """
        times = self.rtt_times
        start = bisect_left(times, t0)
        end = bisect_right(times, t1)
        window = self.rtt_values[start:end]
        if not window:
            return (_NAN, _NAN, _NAN)
        return (sum(window) / len(window), min(window), max(window))

    # ------------------------------------------------------------------
    # Invariant sentinel hook (see repro.sim.invariants)
    # ------------------------------------------------------------------

    def scan_invariants(self, cursors: dict, now: float):
        """Incrementally validate samples appended since the last scan.

        ``cursors`` maps stream name to the first unscanned index and is
        updated in place, so repeated calls are O(new samples). Returns
        (kind, site, message) tuples; at most one per stream per scan.
        """
        errors = []
        eps = 1e-9
        start = cursors.get("rtt", 0)
        times, values = self.rtt_times, self.rtt_values
        end = min(len(times), len(values))
        if start < end:
            prev = times[start - 1] if start else -math.inf
            for i in range(start, end):
                t, v = times[i], values[i]
                if t < prev - eps:
                    errors.append((
                        "causality", "rtt_times",
                        f"ACK times regressed at sample {i}: "
                        f"{prev} -> {t}"))
                    break
                if t > now + eps:
                    errors.append((
                        "causality", "rtt_future",
                        f"ACK sample {i} at t={t} is in the future "
                        f"(now={now})"))
                    break
                if not (v > 0.0) or math.isinf(v):
                    errors.append((
                        "sanity", "rtt_values",
                        f"RTT sample {i} must be positive and finite, "
                        f"got {v!r}"))
                    break
                prev = t
            cursors["rtt"] = end
        start = cursors.get("samples", 0)
        times = self.sample_times
        end = min(len(times), len(self.cwnd_values),
                  len(self.delivered_values))
        if start < end:
            prev_t = times[start - 1] if start else -math.inf
            prev_d = self.delivered_values[start - 1] if start else 0.0
            for i in range(start, end):
                t = times[i]
                if t < prev_t - eps or t > now + eps:
                    errors.append((
                        "causality", "sample_times",
                        f"sample {i} at t={t} out of order or in the "
                        f"future (prev={prev_t}, now={now})"))
                    break
                cwnd = self.cwnd_values[i]
                # inf is legitimate for purely rate-based CCAs (see
                # repro.ccas.base); NaN or <= 0 never is.
                if not (cwnd > 0.0):
                    errors.append((
                        "sanity", "cwnd_values",
                        f"cwnd sample {i} must be positive, got {cwnd!r}"))
                    break
                pacing = self.pacing_values[i]
                # NaN is the documented "unpaced" encoding; negative or
                # infinite rates are never legitimate.
                if pacing == pacing and (pacing < 0.0
                                         or math.isinf(pacing)):
                    errors.append((
                        "sanity", "pacing_values",
                        f"pacing sample {i} must be >= 0 and finite, "
                        f"got {pacing!r}"))
                    break
                delivered = self.delivered_values[i]
                if delivered != delivered or math.isinf(delivered) \
                        or delivered < prev_d - eps:
                    errors.append((
                        "conservation", "delivered_values",
                        f"delivered-bytes sample {i} regressed or is not "
                        f"finite: {prev_d} -> {delivered!r}"))
                    break
                prev_t, prev_d = t, delivered
            cursors["samples"] = end
        return errors


class QueueRecorder:
    """Periodically samples bottleneck backlog (bytes) and delay."""

    def __init__(self, queue: BottleneckQueue,
                 sample_interval: float = 0.05) -> None:
        self.queue = queue
        self.sample_interval = sample_interval
        self.sample_times = array("d")
        self.backlog_values = array("d")

    def sample(self, now: float) -> None:
        self.sample_times.append(now)
        self.backlog_values.append(self.queue.backlog_bytes)

    # ------------------------------------------------------------------
    # Invariant sentinel hook (see repro.sim.invariants)
    # ------------------------------------------------------------------

    def scan_invariants(self, cursors: dict, now: float):
        """Incrementally validate backlog samples (see FlowRecorder)."""
        errors = []
        eps = 1e-9
        start = cursors.get("backlog", 0)
        times, values = self.sample_times, self.backlog_values
        end = min(len(times), len(values))
        if start < end:
            prev_t = times[start - 1] if start else -math.inf
            for i in range(start, end):
                t, v = times[i], values[i]
                if t < prev_t - eps or t > now + eps:
                    errors.append((
                        "causality", "sample_times",
                        f"backlog sample {i} at t={t} out of order or in "
                        f"the future (prev={prev_t}, now={now})"))
                    break
                if v != v or math.isinf(v) or v < -eps:
                    errors.append((
                        "sanity", "backlog_values",
                        f"backlog sample {i} must be >= 0 and finite, "
                        f"got {v!r}"))
                    break
                prev_t = t
            cursors["backlog"] = end
        return errors


class Sampler:
    """Samples every recorder of a scenario, in order, from one event
    per ``interval`` (one self-posting event per recorder would fire
    back to back in that same order)."""

    def __init__(self, sim: Simulator, interval: float,
                 recorders: Sequence[object]) -> None:
        self.sim = sim
        self.interval = interval
        self.recorders = list(recorders)
        sim.post(interval, self.tick)

    def tick(self) -> None:
        sim = self.sim
        now = sim.now
        for recorder in self.recorders:
            recorder.sample(now)
        sim.post(self.interval, self.tick)
