"""TCP NewReno: slow start + AIMD congestion avoidance + fast recovery.

NewReno is the paper's canonical *loss-based, non-delay-convergent* CCA
(Section 5.4, Figure 7): it never converges to a bounded delay range on
an ideal path — its queueing delay saw-tooths over the whole buffer — and
that is precisely why small delay jitter cannot starve it (only bias it
by a bounded factor).
"""

from __future__ import annotations

from ..sim.packet import AckInfo
from .base import INITIAL_CWND, WindowCCA


class NewReno(WindowCCA):
    """AIMD with slow start and once-per-window multiplicative decrease.

    Args:
        initial_cwnd: starting window, packets.
        md_factor: multiplicative decrease factor (0.5 = classic Reno).
    """

    def __init__(self, initial_cwnd: float = INITIAL_CWND,
                 md_factor: float = 0.5) -> None:
        super().__init__(initial_cwnd=initial_cwnd, min_cwnd=1.0)
        self.md_factor = md_factor

    def on_ack(self, info: AckInfo) -> None:
        acked_packets = info.acked_bytes / self.mss
        if self.cwnd < self.ssthresh:
            self.cwnd += acked_packets
            if self.cwnd >= self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            self.cwnd += acked_packets / self.cwnd
        self.clamp_cwnd()

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        self.cut_once(seq, self.md_factor)

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self.cwnd * self.md_factor, 2.0)
        super().on_timeout(now)
        self._recovery_until = self.sender.next_seq - 1
