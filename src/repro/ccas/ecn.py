"""ECN-driven AIMD — the Section 6.4 conjecture, made executable.

The paper observes that delay and loss are *ambiguous* congestion
signals (non-congestive jitter and random loss mimic them), while an ECN
mark set by the bottleneck when its queue exceeds a threshold is
unambiguous. It conjectures that an AQM setting ECN bits, "coupled with
CCAs that ignore small amounts of loss, can prevent starvation".

:class:`EcnAimd` implements that CCA: NewReno-style slow start and
additive increase, multiplicative decrease once per window on an
ECN-echo — and *no* reaction to packet loss below a per-window tolerance
(lost packets are still retransmitted by the transport; they just do not
shrink the window). Under asymmetric random loss that starves PCC
Allegro, two EcnAimd flows keep sharing fairly, because the signal they
react to (queue-threshold marks) is identical for both.
"""

from __future__ import annotations

from ..sim.packet import AckInfo
from .base import INITIAL_CWND, WindowCCA


class EcnAimd(WindowCCA):
    """AIMD on ECN marks, loss-tolerant.

    Args:
        initial_cwnd: starting window, packets.
        md_factor: multiplicative decrease on an ECN round.
        loss_tolerance: fraction of a window's packets that may be lost
            per round without triggering a decrease. Losses above this
            (a buffer overflow burst, meaning the AQM is missing or
            overwhelmed) fall back to an AIMD cut, keeping the CCA safe
            on non-ECN paths.
    """

    def __init__(self, initial_cwnd: float = INITIAL_CWND,
                 md_factor: float = 0.5,
                 loss_tolerance: float = 0.1) -> None:
        super().__init__(initial_cwnd=initial_cwnd, min_cwnd=2.0)
        self.md_factor = md_factor
        self.loss_tolerance = loss_tolerance
        self._window_losses = 0
        self._window_start_seq = 0
        self.ecn_responses = 0

    def on_ack(self, info: AckInfo) -> None:
        acked_packets = info.acked_bytes / self.mss
        if info.ecn_marked:
            # Exit slow start and cut once per window on marks.
            self.ssthresh = min(self.ssthresh, self.cwnd)
            self.ecn_responses += 1
            self.cut_once(max(info.acked_seqs, default=0), self.md_factor)
            return
        if self.cwnd < self.ssthresh:
            self.cwnd += acked_packets
            if self.cwnd >= self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            self.cwnd += acked_packets / self.cwnd
        self.clamp_cwnd()
        # Reset the per-round loss counter once per window of seqs.
        if self.sender.highest_acked >= self._window_start_seq:
            self._window_start_seq = self.sender.next_seq
            self._window_losses = 0

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        self._window_losses += 1
        tolerated = max(self.loss_tolerance * self.cwnd, 1.0)
        if self._window_losses > tolerated:
            # Persistent heavy loss: the path is not protecting us with
            # ECN; behave like Reno for safety.
            self.cut_once(seq, self.md_factor)

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self.cwnd * self.md_factor, 2.0)
        super().on_timeout(now)
        self._recovery_until = self.sender.next_seq - 1
