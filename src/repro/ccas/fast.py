"""FAST TCP: smoothed fixed-point iteration toward ``alpha`` queued packets.

FAST shares Vegas's equilibrium (RTT = Rm + n*alpha/C, delta(C) = 0) but
converges by a multiplicative window update instead of AIAD:

    cwnd <- min(2*cwnd, (1-gamma)*cwnd + gamma*(base_rtt/rtt*cwnd + alpha))

Reference: Wei, Jin, Low, Hegde, "FAST TCP: Motivation, Architecture,
Algorithms, Performance", IEEE/ACM ToN 2006.
"""

from __future__ import annotations

import math

from ..sim.packet import AckInfo
from .base import INITIAL_CWND, WindowCCA


class FastTCP(WindowCCA):
    """FAST TCP window control.

    Args:
        alpha: target number of queued packets per flow.
        gamma: smoothing factor in (0, 1].
        base_rtt: optional Rm oracle (None = min-RTT estimator).
    """

    def __init__(self, alpha: float = 4.0, gamma: float = 0.5,
                 initial_cwnd: float = INITIAL_CWND,
                 base_rtt: float = None) -> None:
        super().__init__(initial_cwnd=initial_cwnd, min_cwnd=2.0)
        if not 0 < gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.alpha = alpha
        self.gamma = gamma
        self.base_rtt_oracle = base_rtt
        self.base_rtt = base_rtt if base_rtt is not None else math.inf
        self._epoch_end_seq = 0
        self._avg_rtt: float = None

    def on_ack(self, info: AckInfo) -> None:
        if self.base_rtt_oracle is None and info.rtt < self.base_rtt:
            self.base_rtt = info.rtt
        if self._avg_rtt is None:
            self._avg_rtt = info.rtt
        else:
            # FAST averages RTT over a window; use an EWMA stand-in.
            self._avg_rtt = 0.9 * self._avg_rtt + 0.1 * info.rtt
        if not math.isfinite(self.base_rtt) or self._avg_rtt <= 0:
            return
        # Update once per RTT (per window of sequence numbers).
        if self.sender.highest_acked < self._epoch_end_seq:
            return
        self._epoch_end_seq = self.sender.next_seq
        target = (self.base_rtt / self._avg_rtt) * self.cwnd + self.alpha
        self.cwnd = min(2 * self.cwnd,
                        (1 - self.gamma) * self.cwnd + self.gamma * target)
        self.clamp_cwnd()

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        self.cwnd *= 0.5
        self.clamp_cwnd()
