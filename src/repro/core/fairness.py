"""Fairness and efficiency definitions (paper Definitions 2-4).

* *Throughput* of a flow at time t: bytes acknowledged in [0, t] / t.
* *s-fairness* (Definition 2): there is a finite time t after which the
  faster/slower throughput ratio stays below s.
* *Starvation* (Definition 3): the network is not s-fair for any finite s.
* *f-efficiency* (Definition 4): on an ideal path of rate C the CCA's
  delivered bytes reach f*C*t' for arbitrarily large t'.

Empirical runs are finite. :func:`check_s_fairness` reads Definition 2
over recorded samples, and :meth:`repro.sim.runner.RunResult.fairness`
applies it over a run's measurement window. Definition 4 needs no
estimator of its own: over that window it is
:meth:`~repro.sim.runner.RunResult.utilization` (docs/THEORY.md).
Jain's index is the reports' second fairness number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


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
    """Definition 2 read over a finite series of samples.

    ``satisfied_from`` is the earliest sample time after which the
    running throughput ratio stays below ``s``; ``violated_from`` the
    earliest after which it stays at or above ``s``. The last sample
    decides which one is finite; with no samples both are nan.
    """

    s: float
    satisfied_from: float
    violated_from: float
    final_ratio: float

    @property
    def is_s_fair(self) -> bool:
        return not math.isnan(self.satisfied_from)


def check_s_fairness(times: Sequence[float],
                     cumulative_bytes: Sequence[Sequence[float]],
                     s: float, origin: float = 0.0) -> SFairnessVerdict:
    """Check Definition 2 over recorded cumulative-delivery curves.

    Args:
        times: shared sample grid (seconds, increasing).
        cumulative_bytes: per flow, the bytes delivered since ``origin``
            at each of ``times``.
        s: the fairness bound to test.
        origin: where throughput time starts: a flow's throughput at t
            is its bytes over ``t - origin``. Samples at or before
            ``origin`` are skipped.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    sample_times, below = [], []
    final = math.inf
    for k, t in enumerate(times):
        span = t - origin
        if span > 0:
            final = throughput_ratio([c[k] / span for c in cumulative_bytes])
            sample_times.append(float(t))
            below.append(final < s)
    # The earliest sample from which every later one is on the last
    # sample's side of s.
    start = len(below)
    while start and below[start - 1] == below[-1]:
        start -= 1
    since = sample_times[start] if below else math.nan
    fair = bool(below) and below[-1]
    return SFairnessVerdict(s=s,
                            satisfied_from=since if fair else math.nan,
                            violated_from=math.nan if fair else since,
                            final_ratio=final)
