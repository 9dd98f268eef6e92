"""TCP Vegas: keep ``alpha``..``beta`` packets queued at the bottleneck.

Vegas is the archetypal delay-convergent CCA (paper Section 2.2 and 5.1):
on an ideal path it converges to RTT = Rm + n*alpha/C with *zero*
equilibrium oscillation (delta(C) = 0), which is exactly what makes it
maximally vulnerable to non-congestive jitter — a sub-millisecond error
in queueing-delay estimation changes its inferred rate by 10x.

The implementation follows Brakmo & Peterson's per-RTT control: once per
RTT compute ``diff = cwnd * (rtt - base_rtt) / rtt`` (the estimated number
of our packets sitting in the queue); increase cwnd by one packet when
``diff < alpha``, decrease by one when ``diff > beta``, hold otherwise.
"""

from __future__ import annotations

import math

from ..sim.packet import AckInfo
from .base import INITIAL_CWND, WindowCCA


class Vegas(WindowCCA):
    """Classic Vegas with slow start and alpha/beta band control.

    Args:
        alpha: lower bound on queued packets (increase below this).
        beta: upper bound on queued packets (decrease above this).
        base_rtt: optional oracle for Rm; when None (default) Vegas
            estimates it as the minimum observed RTT, which is exactly
            the estimator the paper's Section 5.1 attack poisons.
    """

    def __init__(self, alpha: float = 2.0, beta: float = 4.0,
                 initial_cwnd: float = INITIAL_CWND,
                 base_rtt: float = None) -> None:
        super().__init__(initial_cwnd=initial_cwnd, min_cwnd=2.0)
        if alpha > beta:
            raise ValueError(f"alpha ({alpha}) must be <= beta ({beta})")
        self.alpha = alpha
        self.beta = beta
        self.base_rtt_oracle = base_rtt
        self.base_rtt = base_rtt if base_rtt is not None else math.inf
        self._epoch_end_seq = 0
        self._in_slow_start = True

    def on_ack(self, info: AckInfo) -> None:
        if self.base_rtt_oracle is None and info.rtt < self.base_rtt:
            self.base_rtt = info.rtt
        if info.rtt <= 0 or not math.isfinite(self.base_rtt):
            return

        queued = self.cwnd * (info.rtt - self.base_rtt) / info.rtt

        if self._in_slow_start:
            # Vegas leaves slow start when it detects queue build-up.
            if queued > self.beta or self.cwnd >= self.ssthresh:
                self._in_slow_start = False
            else:
                self.cwnd += info.acked_bytes / self.mss
                self.clamp_cwnd()
                return

        # Per-RTT adjustment: act once per window of sequence numbers.
        if info.now < 0 or self.sender.highest_acked < self._epoch_end_seq:
            return
        self._epoch_end_seq = self.sender.next_seq
        if queued < self.alpha:
            self.cwnd += 1.0
        elif queued > self.beta:
            self.cwnd -= 1.0
        self.clamp_cwnd()

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        # Vegas halves on loss like Reno (rare on the paths studied here).
        self.cwnd *= 0.5
        self.clamp_cwnd()
        self.ssthresh = self.cwnd
        self._in_slow_start = False

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self.cwnd * 0.5, 2.0)
        super().on_timeout(now)
        self._in_slow_start = True
