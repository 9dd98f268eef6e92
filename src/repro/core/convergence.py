"""Delay-convergence (Definition 1) measurement and certification.

A CCA is *delay-convergent* if, on an ideal path, there is a time T after
which the observed RTT stays in a bounded interval
``[d_min(C), d_max(C)]``, and both ``d_max(C)`` and
``delta(C) = d_max(C) - d_min(C)`` are bounded for all link rates above
some lambda.

This module measures those quantities from trajectories: it finds the
convergence time T empirically (the earliest time after which the delay
range stops shrinking meaningfully) and reports the converged range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ..errors import ConvergenceError
from ..model.fluid import Trajectory, run_ideal_path


@dataclass
class ConvergedRange:
    """The equilibrium delay range of one (CCA, link-rate) pair."""

    link_rate: float
    rm: float
    t_converged: float
    d_min: float
    d_max: float

    @property
    def delta(self) -> float:
        """delta(C) = d_max(C) - d_min(C)."""
        return self.d_max - self.d_min

    @property
    def midpoint(self) -> float:
        return (self.d_max + self.d_min) / 2


def find_convergence_time(trajectory: Trajectory,
                          tail_fraction: float = 0.25,
                          tolerance: float = 1.05) -> float:
    """Earliest time from which the delay range matches the tail range.

    The tail of the run (the last ``tail_fraction``) defines the
    converged range; we walk backwards for the earliest suffix whose
    range is within ``tolerance`` x the tail range (absolute widths are
    compared around the shared midpoint).
    """
    times, delays = trajectory.times, trajectory.delays
    n = len(times)
    if n < 10:
        raise ConvergenceError("trajectory too short to analyze")
    tail_start = int(n * (1 - tail_fraction))
    tail = delays[tail_start:]
    tail_lo, tail_hi = float(tail.min()), float(tail.max())
    width = max(tail_hi - tail_lo, 1e-9)
    slack = (tolerance - 1) * max(width, 0.01 * (tail_hi - trajectory.rm))
    lo_bound = tail_lo - slack
    hi_bound = tail_hi + slack
    # Earliest index from which all delays stay within the widened band.
    # Note a trajectory that never converges (e.g. a growing ramp) still
    # returns a time here — but its measured range is as wide as the
    # tail itself, which downstream certificates reject via delta/d_max
    # bounds.
    inside = (delays >= lo_bound) & (delays <= hi_bound)
    outside = np.nonzero(~inside)[0]
    if len(outside) == 0:
        return float(times[0])
    first_inside = min(outside[-1] + 1, n - 1)
    return float(times[first_inside])


def measure_converged_range(trajectory: Trajectory,
                            tail_fraction: float = 0.25,
                            tolerance: float = 1.05) -> ConvergedRange:
    """Measure [d_min(C), d_max(C)] after the convergence time."""
    t_conv = find_convergence_time(trajectory, tail_fraction, tolerance)
    d_min, d_max = trajectory.delay_range(t_conv)
    return ConvergedRange(link_rate=trajectory.link_rate,
                          rm=trajectory.rm, t_converged=t_conv,
                          d_min=d_min, d_max=d_max)


def measure_cca_range(cca_factory: Callable[[], object], link_rate: float,
                      rm: float, duration: float = 30.0,
                      dt: float = 1e-3) -> ConvergedRange:
    """Run a fresh fluid CCA on an ideal path and measure its range."""
    trajectory = run_ideal_path(cca_factory(), link_rate, rm, duration, dt)
    return measure_converged_range(trajectory)


@dataclass
class ConvergenceCertificate:
    """Empirical check of Definition 1 over a grid of link rates.

    ``is_delay_convergent`` holds when every measured d_max is below
    ``d_max_bound`` and every delta below ``delta_bound`` for rates above
    ``lam`` (the definition's lambda).
    """

    ranges: List[ConvergedRange]
    lam: float
    d_max_bound: float
    delta_bound: float

    @property
    def is_delay_convergent(self) -> bool:
        applicable = [r for r in self.ranges if r.link_rate > self.lam]
        if not applicable:
            return False
        return all(r.d_max < self.d_max_bound
                   and r.delta < self.delta_bound for r in applicable)

    @property
    def delta_max(self) -> float:
        """The tightest empirical delta_max over rates above lambda."""
        applicable = [r.delta for r in self.ranges if r.link_rate > self.lam]
        if not applicable:
            return math.nan
        return max(applicable)
