"""Packet-level twin of :class:`repro.model.cca.WindowTargetCCA`.

A deterministic, self-clocked window controller that targets a queueing
delay of ``pedestal + alpha / rate``:

    d ln w = kappa * clip(ln(q_target / q), -1, 1) * dt

applied per ACK with dt = inter-ACK spacing. It exists so the Theorem 1
construction (built on the fluid model) can be replayed in the packet
simulator: the CCA is delay-convergent with a standing queue (Case 1
material), deterministic, and its only persistent state is the window —
so a flow can be started "converged" by handing it the right initial
window.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from ..sim.packet import AckInfo
from .base import CCA


class WindowTarget(CCA):
    """Self-clocked log-window controller with a standing-queue target.

    Args:
        alpha: byte-count term of the target queueing delay.
        pedestal: standing queueing-delay target, seconds.
        kappa: controller gain (1/s).
        rm: Rm oracle (the theory runs assume it; see the paper's note
            that the proofs work "even if the CCA has oracular
            knowledge of Rm"). None = min-RTT estimator.
        initial_window: starting window in bytes (None = 10 packets).
    """

    def __init__(self, alpha: float = 6000.0, pedestal: float = 0.04,
                 kappa: float = 1.0, rm: Optional[float] = None,
                 initial_window: Optional[float] = None) -> None:
        super().__init__()
        if alpha <= 0 or pedestal < 0 or kappa <= 0:
            raise ValueError("invalid WindowTarget parameters")
        self.alpha = alpha
        self.pedestal = pedestal
        self.kappa = kappa
        self.rm_oracle = rm
        self.window = initial_window if initial_window else 10 * 1500.0
        self._min_rtt = rm if rm is not None else math.inf
        self._last_ack_time: Optional[float] = None
        self._latest_rtt: Optional[float] = None
        self.cwnd_bytes, self.pacing_rate = self.outputs()

    def on_ack(self, info: AckInfo) -> None:
        if self.rm_oracle is None and info.rtt < self._min_rtt:
            self._min_rtt = info.rtt
        self._latest_rtt = info.rtt
        if math.isfinite(self._min_rtt):
            last = self._last_ack_time
            self._last_ack_time = info.now
            if last is not None and info.now > last:
                dt = info.now - last
                queueing = max(info.rtt - self._min_rtt, 1e-9)
                rate = self.window / info.rtt
                target = self.pedestal + self.alpha / max(rate, 1.0)
                drive = math.log(target / queueing)
                drive = min(max(drive, -1.0), 1.0)
                self.window *= math.exp(self.kappa * drive * min(dt, 0.1))
                self.window = max(self.window, 2 * 1500.0)
        self.cwnd_bytes, self.pacing_rate = self.outputs()

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        self.window = max(self.window * 0.7, 2 * 1500.0)
        self.cwnd_bytes, self.pacing_rate = self.outputs()

    def on_timeout(self, now: float) -> None:
        self.window = max(self.window * 0.5, 2 * 1500.0)
        self.cwnd_bytes, self.pacing_rate = self.outputs()

    def outputs(self) -> Tuple[float, Optional[float]]:
        if self._latest_rtt is None:
            return self.window, None
        # Pace at the self-clocked rate to keep the queue smooth.
        return self.window, self.window / self._latest_rtt
