"""Verus (simplified): delay-profile learning congestion control.

Verus (Zaki et al., SIGCOMM 2015) learns an empirical *delay profile*
— a mapping from congestion window to observed RTT — and each epoch
picks the window the profile predicts will produce its target delay.
The target itself moves AIMD-style with the delay trend. The paper
cites Verus in the delay-convergent family ("maximums of RTT" as its
filter, Section 1), so starvation applies to it as well.

This implementation keeps the structure that matters for the paper's
analysis:

* an epoch timer (~epoch_ms) driving window updates;
* a delay profile learned online as an EWMA per window bucket;
* the max-RTT-within-epoch filter Verus uses for its delay estimate;
* AIMD on the delay target between ``rm * min_target_mult`` and
  ``rm * max_target_mult``.

On an ideal path it converges to a bounded delay band around its target
(delay-convergent); under asymmetric jitter its profile is poisoned the
same way Vegas's min filter is.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..sim.packet import AckInfo
from .base import INITIAL_CWND, WindowCCA


class Verus(WindowCCA):
    """Simplified Verus.

    Args:
        epoch: epoch duration in seconds (window updates per epoch).
        delta_increase / delta_decrease: AIMD steps for the delay target
            (in multiples of the min RTT).
        min_target_mult / max_target_mult: clamp on the delay target as
            multiples of the min RTT.
        bucket_packets: delay-profile resolution, packets per bucket.
    """

    def __init__(self, epoch: float = 0.005,
                 delta_increase: float = 0.1,
                 delta_decrease: float = 0.2,
                 min_target_mult: float = 1.2,
                 max_target_mult: float = 4.0,
                 bucket_packets: float = 2.0,
                 initial_cwnd: float = INITIAL_CWND) -> None:
        super().__init__(initial_cwnd=initial_cwnd, min_cwnd=2.0)
        self.epoch = epoch
        self.delta_increase = delta_increase
        self.delta_decrease = delta_decrease
        self.min_target_mult = min_target_mult
        self.max_target_mult = max_target_mult
        self.bucket_packets = bucket_packets

        self.min_rtt = math.inf
        self.target_mult = 2.0
        self._epoch_max_rtt = 0.0
        self._epoch_prev_max = 0.0
        # Delay profile: window bucket -> EWMA of observed RTT.
        self._profile: Dict[int, float] = {}
        self._in_slow_start = True

    def _bucket(self, cwnd: float) -> int:
        return int(cwnd / self.bucket_packets)

    def _learn(self, cwnd: float, rtt: float) -> None:
        bucket = self._bucket(cwnd)
        previous = self._profile.get(bucket)
        if previous is None:
            self._profile[bucket] = rtt
        else:
            self._profile[bucket] = 0.8 * previous + 0.2 * rtt

    def _window_for_delay(self, target_delay: float) -> Optional[float]:
        """Largest profiled window whose learned delay <= target."""
        best = None
        for bucket, delay in self._profile.items():
            if delay <= target_delay:
                if best is None or bucket > best:
                    best = bucket
        if best is None:
            return None
        return (best + 0.5) * self.bucket_packets

    def on_start(self) -> None:
        self._tick()

    def _tick(self) -> None:
        self._update_window()
        self.sender.kick()
        self.sim.post(self.epoch, self._tick)

    def _update_window(self) -> None:
        if not math.isfinite(self.min_rtt) or self._epoch_max_rtt <= 0:
            return
        epoch_delay = self._epoch_max_rtt     # Verus's max-RTT filter
        self._epoch_prev_max = self._epoch_max_rtt
        self._epoch_max_rtt = 0.0

        if self._in_slow_start:
            if epoch_delay > self.min_rtt * self.target_mult:
                self._in_slow_start = False
            else:
                self.cwnd *= 1.05
                self.clamp_cwnd()
                return

        # AIMD on the delay target, tracking the delay trend.
        if epoch_delay > self.min_rtt * self.target_mult:
            self.target_mult = max(self.min_target_mult,
                                   self.target_mult - self.delta_decrease)
        else:
            self.target_mult = min(self.max_target_mult,
                                   self.target_mult + self.delta_increase)

        target_delay = self.min_rtt * self.target_mult
        window = self._window_for_delay(target_delay)
        if window is not None:
            # Move a fraction of the way to the profile's suggestion to
            # damp profile noise.
            self.cwnd += 0.3 * (window - self.cwnd)
        elif epoch_delay > target_delay:
            self.cwnd *= 0.9
        else:
            self.cwnd += 1.0
        self.clamp_cwnd()

    def on_ack(self, info: AckInfo) -> None:
        if info.rtt < self.min_rtt:
            self.min_rtt = info.rtt
        if info.rtt > self._epoch_max_rtt:
            self._epoch_max_rtt = info.rtt
        self._learn(self.cwnd, info.rtt)

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        self.cwnd *= 0.5
        self.clamp_cwnd()
        self._in_slow_start = False

    def on_timeout(self, now: float) -> None:
        super().on_timeout(now)
        self._in_slow_start = True
