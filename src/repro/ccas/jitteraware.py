"""Algorithm 1 from the paper (Section 6.3): a jitter-aware CCA.

The paper proposes designing *for* a known jitter bound D by using the
exponential rate-delay map of Equation 2:

    mu(d) = mu_minus * s ** ((Rmax - (d - Rm)) / D)

which assigns every factor-of-s rate band a delay band wider than D, so
flows whose delay measurements disagree by up to D can still never infer
rates more than a factor s apart. The control loop (run every Rm) is
AIMD on the *rate*:

    if mu < mu(d):  mu <- mu + a          (additive increase)
    else:           mu <- b * mu          (multiplicative decrease)

The paper notes AIMD (not AIAD) matters for fairness under measurement
ambiguity, and that the step must be per-RTT, independent of ACK count.

This is the paper's illustration of "choose two of three, unless you
design for D": with jitter <= D the algorithm is s-fair and efficient,
at the cost of keeping delay between Rm + D and Rmax.
"""

from __future__ import annotations

import math
from typing import Optional

from .. import units
from ..sim.packet import AckInfo
from .base import RateCCA


class JitterAware(RateCCA):
    """The paper's Algorithm 1.

    Args:
        jitter_bound: the designed-for jitter bound D, seconds.
        s: tolerated unfairness ratio (> 1).
        rmax: maximum tolerable *queueing* delay above Rm, seconds
            (the paper's Rmax with the d - Rm convention of Algorithm 1).
        mu_minus: minimum supported rate, bytes/s.
        additive_step: the increase ``a`` in bytes/s per Rm.
        md_factor: the decrease factor ``b`` in (0, 1).
        rm: optional Rm oracle; None = min-RTT estimator. Because the
            rate map only needs delay *relative* to Rm + D, a min-RTT
            error of up to D shifts the map by less than one s-band,
            preserving s'-fairness for a slightly larger s'.
    """

    def __init__(self, jitter_bound: float, s: float = 2.0,
                 rmax: float = 0.2, mu_minus: float = units.kbps(100),
                 additive_step: Optional[float] = None,
                 md_factor: float = 0.9,
                 rm: Optional[float] = None,
                 decrease_mode: str = "multiplicative") -> None:
        super().__init__(initial_rate=mu_minus)
        if jitter_bound <= 0:
            raise ValueError("jitter_bound must be > 0")
        if s <= 1:
            raise ValueError(f"s must be > 1, got {s}")
        if not 0 < md_factor < 1:
            raise ValueError(f"md_factor must be in (0,1), got {md_factor}")
        if decrease_mode not in ("multiplicative", "additive"):
            raise ValueError("decrease_mode must be 'multiplicative' or "
                             f"'additive', got {decrease_mode!r}")
        # The paper (6.3) chose AIMD over the AIAD of Vegas/Copa because
        # "the fairness properties of AIMD are critical in the presence
        # of measurement ambiguity"; the additive mode exists so the
        # ablation bench can demonstrate exactly that.
        self.decrease_mode = decrease_mode
        self.jitter_bound = jitter_bound
        self.s = s
        self.rmax = rmax
        self.mu_minus = mu_minus
        self.additive_step = (additive_step if additive_step is not None
                              else mu_minus / 2)
        self.md_factor = md_factor
        self.rm_oracle = rm
        self._min_rtt = rm if rm is not None else math.inf
        self._latest = math.inf
        self.min_rate = mu_minus * self.md_factor

    def target_rate(self, rtt: float) -> float:
        """Equation 2 evaluated at the measured RTT."""
        rm = self._min_rtt if math.isfinite(self._min_rtt) else rtt
        queueing = max(0.0, rtt - rm)
        exponent = (self.rmax - queueing) / self.jitter_bound
        return self.mu_minus * self.s ** exponent

    def on_start(self) -> None:
        self._tick()

    def _tick(self) -> None:
        if math.isfinite(self._latest):
            if self.rate < self.target_rate(self._latest):
                self.rate += self.additive_step
            elif self.decrease_mode == "multiplicative":
                self.rate *= self.md_factor
            else:
                self.rate -= self.additive_step
            self.clamp_rate()
            self.sender.kick()
        interval = (self._min_rtt if math.isfinite(self._min_rtt)
                    else 0.05)
        self.sim.post(max(interval, 1e-3), self._tick)

    def on_ack(self, info: AckInfo) -> None:
        self.note_rtt(info.rtt)
        self._latest = info.rtt
        if self.rm_oracle is None and info.rtt < self._min_rtt:
            self._min_rtt = info.rtt

    def on_loss(self, now: float, seq: int, lost_bytes: int) -> None:
        # Algorithm 1 as published has no loss path; back off defensively
        # so short buffers do not collapse the experiment.
        self.rate *= self.md_factor
        self.clamp_rate()

    def on_timeout(self, now: float) -> None:
        self.rate = max(self.min_rate, self.rate * 0.5)
