"""CUBIC: loss-based congestion control with cubic window growth.

On each loss, cwnd drops to ``beta x W_max``; afterwards the window grows
along ``W(t) = C (t - K)^3 + W_max`` with ``K = cbrt(W_max (1-beta)/C)``,
plateauing near the previous maximum before probing beyond it.

CUBIC is the second non-delay-convergent CCA in the paper's Figure 7:
with one receiver using 4-packet delayed ACKs, the bursty flow loses
more often and gets ~1/3 of the bandwidth — bounded unfairness, not
starvation, because the faster flow's cubic overshoot periodically
yields queue room.
"""

from __future__ import annotations

from ..sim.packet import AckInfo
from .base import INITIAL_CWND, WindowCCA

CUBE_SCALE = 0.4      # the "C" constant, packets/s^3
BETA = 0.7            # multiplicative decrease target


class Cubic(WindowCCA):
    """CUBIC window control (RFC 8312 shape, no TCP-friendly region).

    Args:
        cube_scale: the aggressiveness constant C.
        beta: post-loss window fraction.
        fast_convergence: release bandwidth faster when W_max shrinks.
    """

    def __init__(self, initial_cwnd: float = INITIAL_CWND,
                 cube_scale: float = CUBE_SCALE, beta: float = BETA,
                 fast_convergence: bool = True) -> None:
        super().__init__(initial_cwnd=initial_cwnd, min_cwnd=2.0)
        self.cube_scale = cube_scale
        self.beta = beta
        self.fast_convergence = fast_convergence
        self.w_max = 0.0
        self._epoch_start: float = None
        self._k = 0.0

    def _cubic_window(self, elapsed: float) -> float:
        return (self.cube_scale * (elapsed - self._k) ** 3 + self.w_max)

    def on_ack(self, info: AckInfo) -> None:
        acked_packets = info.acked_bytes / self.mss
        if self.cwnd < self.ssthresh:
            self.cwnd += acked_packets
            if self.cwnd >= self.ssthresh:
                self.cwnd = self.ssthresh
            self.clamp_cwnd()
            return
        if self._epoch_start is None:
            self._epoch_start = info.now
            if self.w_max < self.cwnd:
                self.w_max = self.cwnd
            self._k = ((self.w_max * (1 - self.beta) / self.cube_scale)
                       ** (1.0 / 3.0))
        target = self._cubic_window(info.now - self._epoch_start)
        if target > self.cwnd:
            # Standard CUBIC ramp: close the gap over one RTT.
            self.cwnd += (target - self.cwnd) * acked_packets / self.cwnd
        else:
            # Slow growth while under the cubic curve.
            self.cwnd += 0.01 * acked_packets
        self.clamp_cwnd()

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        cwnd = self.cwnd
        if not self.cut_once(seq, self.beta):
            return
        if self.fast_convergence and cwnd < self.w_max:
            self.w_max = cwnd * (2 - self.beta) / 2
        else:
            self.w_max = cwnd
        self._epoch_start = None

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self.cwnd * self.beta, 2.0)
        self.w_max = self.cwnd
        super().on_timeout(now)
        self._epoch_start = None
        self._recovery_until = self.sender.next_seq - 1
