"""LEDBAT (RFC 6817): scavenger CCA targeting a fixed queueing delay.

LEDBAT measures one-way (here: round-trip) queueing delay against a
base-delay minimum filter and nudges cwnd proportionally to the distance
from ``target`` (default 100 ms): another delay-convergent design — on an
ideal path it converges to RTT = Rm + target with delta(C) -> 0, so the
paper's starvation result applies to it as well (min-filter poisoning
works exactly as for Copa).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Tuple

from ..sim.packet import AckInfo
from .base import INITIAL_CWND, WindowCCA


class Ledbat(WindowCCA):
    """LEDBAT with a windowed base-delay filter.

    Args:
        target: queueing-delay target in seconds (RFC default 0.1).
        gain: window gain per off-target RTT.
        base_history: horizon of the base-delay min filter, seconds.
    """

    def __init__(self, target: float = 0.1, gain: float = 1.0,
                 initial_cwnd: float = INITIAL_CWND,
                 base_history: float = math.inf) -> None:
        super().__init__(initial_cwnd=initial_cwnd, min_cwnd=2.0)
        if target <= 0:
            raise ValueError(f"target must be > 0, got {target}")
        self.target = target
        self.gain = gain
        self.base_history = base_history
        self._base_samples: Deque[Tuple[float, float]] = deque()

    def _base_delay(self, now: float, rtt: float) -> float:
        # Monotonic deque: O(1) amortized sliding-window minimum.
        samples = self._base_samples
        while samples and samples[-1][1] >= rtt:
            samples.pop()
        samples.append((now, rtt))
        if math.isfinite(self.base_history):
            while samples and samples[0][0] < now - self.base_history:
                samples.popleft()
        return samples[0][1]

    def on_ack(self, info: AckInfo) -> None:
        base = self._base_delay(info.now, info.rtt)
        queuing_delay = info.rtt - base
        off_target = (self.target - queuing_delay) / self.target
        acked_packets = info.acked_bytes / self.mss
        self.cwnd += self.gain * off_target * acked_packets / self.cwnd
        self.clamp_cwnd()

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        self.cwnd *= 0.5
        self.clamp_cwnd()
