"""Fairness and efficiency definitions (paper Definitions 2-4).

* *Throughput* of a flow at time t: bytes acknowledged in [0, t] / t.
* *s-fairness* (Definition 2): there is a finite time t after which the
  faster/slower throughput ratio stays below s.
* *Starvation* (Definition 3): the network is not s-fair for any finite s.
* *f-efficiency* (Definition 4): on an ideal path of rate C the CCA's
  delivered bytes reach f*C*t' for arbitrarily large t'.

Empirical runs are finite, so this module provides finite-horizon
estimators of these properties plus standard fairness metrics (Jain's
index) used in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # the CLI start path imports this module: no numpy here
    import numpy as np


def throughput_ratio(throughputs: Sequence[float]) -> float:
    """Faster flow's throughput over the slower's (>= 1; inf if one is 0)."""
    if len(throughputs) < 2:
        return 1.0
    lo = min(throughputs)
    hi = max(throughputs)
    if lo <= 0:
        return math.inf if hi > 0 else 1.0
    return hi / lo


def jain_index(throughputs: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1].

    1.0 for no flows and for all-zero throughputs. Both sums accumulate
    left to right in plain doubles, not through ``sum()`` (compensated
    from Python 3.12) or ``math.fsum`` (exact): bit-identical to numpy's
    ``xs.sum() ** 2 / (n * (xs ** 2).sum())`` up to 7 flows, within a
    relative 2e-15 from 8 on, where numpy sums pairwise.
    """
    xs = [float(x) for x in throughputs]
    total = squares = 0.0
    for x in xs:
        total += x
        squares += x * x
    if squares == 0.0:
        return 1.0
    return total ** 2 / (len(xs) * squares)


@dataclass
class SFairnessVerdict:
    """Finite-horizon s-fairness check over a throughput-ratio series.

    ``is_s_fair`` holds when, from some sample onward, the running
    cumulative throughput ratio stays below s.
    """

    s: float
    satisfied_from: float   # nan when never satisfied in the horizon
    final_ratio: float

    @property
    def is_s_fair(self) -> bool:
        return not math.isnan(self.satisfied_from)


def check_s_fairness(times: np.ndarray,
                     cumulative_bytes: Sequence[np.ndarray],
                     s: float) -> SFairnessVerdict:
    """Check Definition 2 over recorded cumulative-delivery curves.

    Args:
        times: shared sample grid (seconds, increasing, > 0 tail).
        cumulative_bytes: per-flow cumulative delivered bytes at ``times``.
        s: the fairness bound to test.
    """
    import numpy as np

    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    curves = [np.asarray(c, dtype=float) for c in cumulative_bytes]
    valid = times > 0
    ratios = np.empty(valid.sum())
    ts = times[valid]
    stacked = np.vstack([c[valid] / ts for c in curves])
    hi = stacked.max(axis=0)
    lo = stacked.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(lo > 0, hi / lo, math.inf)
    final = float(ratios[-1]) if len(ratios) else math.inf
    below = ratios < s
    # satisfied_from = earliest time from which all later samples hold.
    if not below.any() or not below[-1]:
        return SFairnessVerdict(s=s, satisfied_from=math.nan,
                                final_ratio=final)
    above = np.nonzero(~below)[0]
    start_idx = (above[-1] + 1) if len(above) else 0
    return SFairnessVerdict(s=s, satisfied_from=float(ts[start_idx]),
                            final_ratio=final)


@dataclass
class EfficiencyVerdict:
    """Finite-horizon f-efficiency estimate (Definition 4)."""

    f: float
    best_fraction: float     # max over t' of delivered(t') / (C * t')
    achieved_at: float

    @property
    def is_f_efficient(self) -> bool:
        return self.best_fraction >= self.f


def check_f_efficiency(times: np.ndarray, cumulative_bytes: np.ndarray,
                       link_rate: float, f: float,
                       after: float = 0.0) -> EfficiencyVerdict:
    """Estimate Definition 4: does delivered(t')/ (C t') reach f?

    Because the definition only needs the fraction to reach f at
    arbitrarily large times, the finite-horizon estimator reports the
    best fraction achieved after ``after``.
    """
    import numpy as np

    if not 0 < f <= 1:
        raise ValueError(f"f must be in (0, 1], got {f}")
    mask = times > max(after, 0.0)
    ts = times[mask]
    delivered = np.asarray(cumulative_bytes, dtype=float)[mask]
    if len(ts) == 0:
        return EfficiencyVerdict(f=f, best_fraction=0.0,
                                 achieved_at=math.nan)
    fractions = delivered / (link_rate * ts)
    best = int(np.argmax(fractions))
    return EfficiencyVerdict(f=f, best_fraction=float(fractions[best]),
                             achieved_at=float(ts[best]))


def starvation_evidence(ratio_series: Sequence[float],
                        thresholds: Sequence[float] = (2, 5, 10, 50, 100)
                        ) -> dict:
    """Summarize how many fairness thresholds a run's final ratio exceeds.

    True starvation (unbounded ratio) cannot be established by a finite
    run; this helper reports which candidate s values the observed ratio
    already violates, which is how the paper's empirical sections argue.
    """
    final = ratio_series[-1] if len(ratio_series) else 1.0
    return {
        "final_ratio": final,
        "violated_s": [s for s in thresholds if final >= s],
    }
