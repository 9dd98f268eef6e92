"""Shared machinery for the PCC family: monitor intervals (MIs).

PCC variants (Allegro, Vivace) send at a fixed rate during each monitor
interval, observe the fate of exactly the packets *sent during* that
interval, compute a utility from the resulting statistics (throughput,
loss rate, RTT gradient), and adjust the rate by comparing utilities.

Two timing details matter and are easy to get wrong:

* **Send-time attribution.** An MI's loss rate counts the losses of the
  packets sent during it, which are only known ~1 RTT later. Each MI
  stays open until all its packets are ACKed or declared lost (with a
  timeout backstop), and completed MIs are delivered to the controller
  in send order.
* **Planned rates.** Because results lag sending, the controller cannot
  set "the next MI's rate" when a result arrives — more MIs have already
  started. Instead each MI is *planned* when it begins via
  :meth:`plan_interval`, which returns ``(rate, tag)``; the controller
  recognizes its probe MIs by tag when their results arrive, and
  untagged gaps run at the base rate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.packet import AckInfo
from .base import RateCCA


class MonitorStats:
    """Statistics for the packets sent during one monitor interval."""

    __slots__ = ("rate", "tag", "start", "end", "sent_packets",
                 "sent_bytes", "acked_packets", "acked_bytes", "losses",
                 "rtt_samples", "pending", "finalized")

    def __init__(self, rate: float, start: float, tag: str = "base") -> None:
        self.rate = rate
        self.tag = tag
        self.start = start
        self.end: Optional[float] = None
        self.sent_packets = 0
        self.sent_bytes = 0.0
        self.acked_packets = 0
        self.acked_bytes = 0.0
        self.losses = 0
        self.rtt_samples: List[Tuple[float, float]] = []
        self.pending = 0
        self.finalized = False

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def throughput(self) -> float:
        """Delivered rate in bytes/s for packets sent in this MI."""
        if self.duration <= 0:
            return 0.0
        return self.acked_bytes / self.duration

    def loss_rate(self) -> float:
        if self.sent_packets <= 0:
            return 0.0
        return self.losses / self.sent_packets

    def rtt_gradient(self) -> float:
        """Least-squares slope of RTT vs time (seconds per second)."""
        samples = self.rtt_samples
        n = len(samples)
        if n < 2:
            return 0.0
        mean_t = sum(t for t, _ in samples) / n
        mean_r = sum(r for _, r in samples) / n
        num = sum((t - mean_t) * (r - mean_r) for t, r in samples)
        den = sum((t - mean_t) ** 2 for t, _ in samples)
        if den <= 0:
            return 0.0
        return num / den

    def mean_rtt(self) -> float:
        if not self.rtt_samples:
            return float("nan")
        return sum(r for _, r in self.rtt_samples) / len(self.rtt_samples)


class MonitorIntervalCCA(RateCCA):
    """Base class: schedules MIs and feeds completed stats to subclasses.

    Subclasses implement :meth:`plan_interval` (rate and tag for the MI
    that is about to start) and :meth:`on_interval_done` (called with
    each finished :class:`MonitorStats` in send order).
    """

    def __init__(self, initial_rate: float, mi_rtt_multiplier: float = 1.7,
                 min_mi: float = 0.01,
                 finalize_grace_rtts: float = 4.0,
                 min_mi_packets: int = 0,
                 max_mi_extensions: int = 4) -> None:
        super().__init__(initial_rate=initial_rate)
        self.mi_rtt_multiplier = mi_rtt_multiplier
        self.min_mi = min_mi
        self.finalize_grace_rtts = finalize_grace_rtts
        self.min_mi_packets = min_mi_packets
        self.max_mi_extensions = max_mi_extensions
        self._extensions = 0
        self._current: Optional[MonitorStats] = None
        self._open: List[MonitorStats] = []   # closed but not yet finalized
        self._seq_to_mi: Dict[int, MonitorStats] = {}
        self._srtt: Optional[float] = None
        self.intervals_completed = 0

    def on_start(self) -> None:
        self._begin_interval()

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------

    def plan_interval(self) -> Tuple[float, str]:
        """Rate (bytes/s) and tag for the MI that is about to start."""
        return self.rate, "base"

    def on_interval_done(self, stats: MonitorStats) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # MI lifecycle
    # ------------------------------------------------------------------

    def _mi_duration(self) -> float:
        if self._srtt is None:
            return max(self.min_mi, 0.05)
        return max(self.min_mi, self.mi_rtt_multiplier * self._srtt)

    def _begin_interval(self) -> None:
        rate, tag = self.plan_interval()
        self.rate = rate
        self.clamp_rate()
        self._current = MonitorStats(self.rate, self.now, tag)
        self.sim.post(self._mi_duration(), self._close_interval)
        self.sender.kick()

    def _close_interval(self) -> None:
        stats = self._current
        assert stats is not None
        # Loss-rate estimates need enough packets to be meaningful at low
        # rates; extend the interval rather than decide on a tiny sample.
        if (stats.sent_packets < self.min_mi_packets
                and self._extensions < self.max_mi_extensions):
            self._extensions += 1
            self.sim.post(self._mi_duration(), self._close_interval)
            return
        self._extensions = 0
        stats.end = self.now
        self._open.append(stats)
        self._begin_interval()
        if stats.pending == 0:
            self._finalize_ready()
        else:
            grace = self.finalize_grace_rtts * (self._srtt or 0.1)
            self.sim.post(grace, self._force_finalize, stats)

    def _force_finalize(self, stats: MonitorStats) -> None:
        """Backstop: treat still-unresolved packets as lost."""
        if stats.finalized:
            return
        if stats.pending > 0:
            stats.losses += stats.pending
            stale = [seq for seq, mi in self._seq_to_mi.items()
                     if mi is stats]
            for seq in stale:
                del self._seq_to_mi[seq]
            stats.pending = 0
        self._finalize_ready()

    def _finalize_ready(self) -> None:
        """Deliver completed MIs to the subclass, preserving order."""
        while self._open and self._open[0].pending == 0:
            stats = self._open.pop(0)
            if stats.finalized:
                continue
            stats.finalized = True
            self.intervals_completed += 1
            self.on_interval_done(stats)

    # ------------------------------------------------------------------
    # Transport events
    # ------------------------------------------------------------------

    def on_send(self, now: float, seq: int, size: int,
                is_retransmit: bool) -> None:
        stats = self._current
        if stats is None:
            return
        stats.sent_packets += 1
        stats.sent_bytes += size
        stats.pending += 1
        self._seq_to_mi[seq] = stats

    def on_ack(self, info: AckInfo) -> None:
        if self._srtt is None:
            self._srtt = info.rtt
        else:
            self._srtt = 0.9 * self._srtt + 0.1 * info.rtt
        self.note_rtt(info.rtt)
        resolved = False
        for seq in info.acked_seqs:
            stats = self._seq_to_mi.pop(seq, None)
            if stats is None:
                continue
            stats.acked_packets += 1
            stats.acked_bytes += self.mss
            stats.pending -= 1
            stats.rtt_samples.append((info.now, info.rtt))
            resolved = True
        if resolved:
            self._finalize_ready()

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        stats = self._seq_to_mi.pop(seq, None)
        if stats is None:
            return
        stats.losses += 1
        stats.pending -= 1
        self._finalize_ready()
