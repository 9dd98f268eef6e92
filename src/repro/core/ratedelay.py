"""Rate-delay maps and the Section 6.3 figure of merit.

A delay-convergent CCA implicitly defines a map from equilibrium delay to
sending rate. The paper analyzes two families:

* the Vegas family, ``mu(d) = alpha / (d - Rm)`` (also BBR's cwnd-limited
  mode with ``d - 2 Rm``), whose supported rate range under an
  s-fairness constraint with jitter D is only O(Rmax / D)  (Equation 1);
* the exponential map of Equation 2,
  ``mu(d) = mu_minus * s ** ((Rmax - d) / D)``,
  whose range is O(s ** (Rmax / D)) — exponentially larger.

This module provides both maps and the mu+/mu- figure-of-merit
calculations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import units
from ..errors import ConfigurationError


@dataclass
class VegasFamilyMap:
    """mu(d) = alpha / (d - offset), the Vegas/FAST/Copa/BBR-cwnd map.

    ``offset`` is Rm for Vegas/FAST/Copa and 2*Rm for BBR's cwnd-limited
    mode (Section 5.2's fixed-point analysis).
    """

    alpha: float            # bytes kept in the queue
    offset: float           # Rm (or 2*Rm for BBR)

    def rate(self, delay: float) -> float:
        queueing = delay - self.offset
        if queueing <= 0:
            return math.inf
        return self.alpha / queueing

    def delay(self, rate: float) -> float:
        """Inverse map: the equilibrium delay at a given link rate."""
        if rate <= 0:
            raise ConfigurationError("rate must be > 0")
        return self.offset + self.alpha / rate

    def mu_plus(self, jitter_bound: float, s: float) -> float:
        """Equation 1's maximum s-fair rate: alpha/D * (1 - 1/s)."""
        if s <= 1:
            raise ConfigurationError(f"s must be > 1, got {s}")
        return self.alpha / jitter_bound * (1 - 1 / s)

    def mu_minus(self, r_max: float) -> float:
        """Minimum rate: the rate whose delay is the tolerable maximum."""
        if r_max <= self.offset:
            raise ConfigurationError("r_max must exceed the map offset")
        return self.alpha / (r_max - self.offset)

    def figure_of_merit(self, jitter_bound: float, s: float,
                        r_max: float) -> float:
        """mu+/mu- = (r_max - offset)/D * (1 - 1/s)   (Equation 1)."""
        return self.mu_plus(jitter_bound, s) / self.mu_minus(r_max)


@dataclass
class ExponentialMap:
    """Equation 2: mu(d) = mu_minus * s ** ((r_max - d) / D)."""

    mu_minus: float
    s: float
    r_max: float            # maximum tolerable delay (absolute RTT)
    jitter_bound: float     # D
    rm: float               # propagation RTT

    def rate(self, delay: float) -> float:
        exponent = (self.r_max - delay) / self.jitter_bound
        return self.mu_minus * self.s ** exponent

    def delay(self, rate: float) -> float:
        """Inverse map (valid for rates in [mu-, mu+])."""
        if rate <= 0:
            raise ConfigurationError("rate must be > 0")
        return (self.r_max - self.jitter_bound
                * math.log(rate / self.mu_minus) / math.log(self.s))

    def mu_plus(self) -> float:
        """Rate at the minimum full-utilization delay Rm + D (Thm 2)."""
        return self.rate(self.rm + self.jitter_bound)

    def figure_of_merit(self) -> float:
        """mu+/mu- = s ** ((r_max - rm - D) / D)."""
        return self.mu_plus() / self.mu_minus


def compare_figures_of_merit(jitter_bound: float, s: float, r_max: float,
                             rm: float,
                             alpha: float = 4 * units.MSS) -> dict:
    """Worked Section 6.3 comparison for a given (D, s, Rmax, Rm).

    Returns both families' mu+/mu- plus the paper's closed forms, e.g.
    D = 10 ms, s = 2, Rmax = 100 ms gives ~2**10 ~ 1e3 for the
    exponential map.
    """
    vegas = VegasFamilyMap(alpha=alpha, offset=rm)
    exponential = ExponentialMap(mu_minus=vegas.mu_minus(r_max), s=s,
                                 r_max=r_max, jitter_bound=jitter_bound,
                                 rm=rm)
    return {
        "vegas_ratio": vegas.figure_of_merit(jitter_bound, s, r_max),
        "exponential_ratio": exponential.figure_of_merit(),
        "vegas_closed_form": (r_max - rm) / jitter_bound * (1 - 1 / s),
        "exponential_closed_form":
            s ** ((r_max - rm - jitter_bound) / jitter_bound),
    }
