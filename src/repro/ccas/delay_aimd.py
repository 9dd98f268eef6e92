"""AIMD-on-delay — the Section 6.2 design-space conjecture, executable.

The paper argues that CCAs with *large* equilibrium delay oscillations
sidestep the pigeonhole argument: the sending rate can be encoded in the
**frequency** of delay oscillation rather than its absolute value, and
"AIMD on delay is an interesting design space for researchers to seek
starvation-free CCAs".

:class:`DelayAimd` implements the idea: grow cwnd additively until the
measured queueing delay exceeds ``threshold``, then halve — a Reno
sawtooth driven by delay instead of loss. Its properties, by design:

* NOT delay-convergent: delta(C) ~ threshold (a large constant), so
  Theorem 1's premise D > 2*delta_max requires jitter larger than the
  whole threshold;
* efficient: the sawtooth averages ~75% of capacity plus the queue;
* jitter-resistant: non-congestive delay smaller than ``threshold``
  only shifts the sawtooth's turning points, changing throughput by a
  bounded factor (the same argument as for loss-based AIMD in 5.4) —
  crucially its backoffs still *happen*, at a frequency the competing
  flow's rate determines.

The min-RTT estimator is the remaining soft spot (as for every
delay-based CCA); ``base_rtt`` gives it an oracle when an experiment
needs to isolate the oscillation mechanism.
"""

from __future__ import annotations

import math
from typing import Optional

from ..sim.packet import AckInfo
from .base import INITIAL_CWND, WindowCCA


class DelayAimd(WindowCCA):
    """AIMD with multiplicative decrease on a queueing-delay threshold.

    Args:
        threshold: queueing delay (above the min-RTT estimate) that
            triggers a window cut, seconds. This is also (roughly) the
            CCA's equilibrium delay oscillation delta(C).
        md_factor: multiplicative decrease factor.
        base_rtt: optional Rm oracle (None = min-RTT estimator).
    """

    def __init__(self, threshold: float = 0.05, md_factor: float = 0.5,
                 initial_cwnd: float = INITIAL_CWND,
                 base_rtt: Optional[float] = None) -> None:
        super().__init__(initial_cwnd=initial_cwnd, min_cwnd=2.0)
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        self.threshold = threshold
        self.md_factor = md_factor
        self.base_rtt_oracle = base_rtt
        self.base_rtt = base_rtt if base_rtt is not None else math.inf
        self.backoffs = 0

    def on_ack(self, info: AckInfo) -> None:
        if self.base_rtt_oracle is None and info.rtt < self.base_rtt:
            self.base_rtt = info.rtt
        if not math.isfinite(self.base_rtt):
            return
        queueing = info.rtt - self.base_rtt
        if queueing > self.threshold:
            # One cut per window in flight.
            if self.cut_once(self.sender.highest_acked, self.md_factor):
                self.backoffs += 1
            return
        acked_packets = info.acked_bytes / self.mss
        if self.cwnd < self.ssthresh:
            self.cwnd += acked_packets
        else:
            self.cwnd += acked_packets / self.cwnd
        self.clamp_cwnd()

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        # Short buffers: fall back to loss-driven AIMD.
        self.cut_once(seq, self.md_factor)

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self.cwnd * self.md_factor, 2.0)
        super().on_timeout(now)
        self._recovery_until = self.sender.next_seq - 1
