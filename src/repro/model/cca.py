"""Deterministic rate-based (fluid) CCAs used by the theory machinery.

A fluid CCA is a deterministic map from observed-delay history to a
sending rate:

* ``initial_rate() -> float`` — the rate before any feedback;
* ``step(t, dt, observed_rtt) -> float`` — the rate for the next dt;
* ``on_loss(t)`` — a loss was signalled at time t (the packet
  ``CCA.on_loss`` vocabulary; no-op by default). Only the adversarial
  search (:mod:`repro.model.explorer`) signals loss: the fluid
  engine (:mod:`repro.model.fluid`) has no buffer to overflow;
* ``clone_state() -> FluidCCA`` — an independent copy of the internal
  state, which is how the search branches.

Determinism is essential: Theorem 1 replays a CCA's single-flow delay
trajectory inside a two-flow network and relies on the CCA producing the
identical rate trajectory, and the search replays a prefix of adversary
choices expecting the same rates every time.
"""

from __future__ import annotations

import copy
import math
from typing import Optional

from .. import units
from ..errors import ConfigurationError


class FluidCCA:
    """Interface for deterministic fluid CCAs."""

    def initial_rate(self) -> float:
        raise NotImplementedError

    def step(self, t: float, dt: float, observed_rtt: float) -> float:
        raise NotImplementedError

    def on_loss(self, t: float) -> None:
        """A loss was signalled at time ``t``; the default ignores it."""

    def clone_state(self) -> "FluidCCA":
        """An independent copy of the internal state.

        A shallow copy: every fluid CCA's state is scalars. A subclass
        that keeps a mutable container must override this.
        """
        return copy.copy(self)


class OscillatingCCA(FluidCCA):
    """A delay-convergent CCA with *non-zero* equilibrium oscillation.

    Once per ``rm`` of fluid time it compares the observed RTT against
    the Vegas-family target curve ``rm + alpha / r`` evaluated at its own
    current rate and moves multiplicatively:

        if d < rm + alpha/r:  r *= (1 + gamma)       else: r /= (1 + gamma)

    On an ideal path this converges to a bounded limit cycle around
    (r = C, d = Rm + alpha/C) whose delay width is a few gamma*rm —
    roughly constant across link rates, like BBR's pacing-mode
    delta = Rm/4. That gives the pigeonhole/emulation machinery a
    non-degenerate, *stable* delta_max at every rate (a continuous
    tracker resonates at low rates; the per-RTT multiplicative step is
    unconditionally stable because each step changes the rate by a fixed
    factor).
    """

    def __init__(self, alpha: float = 6000.0, rm: float = 0.05,
                 gamma: float = 0.05, pedestal: float = 0.0,
                 initial: float = units.mbps(1.0)) -> None:
        if not 0 < gamma < 1:
            raise ConfigurationError("gamma must be in (0, 1)")
        if alpha <= 0 or rm <= 0 or pedestal < 0:
            raise ConfigurationError("alpha, rm must be > 0; pedestal >= 0")
        self.alpha = alpha
        self.rm = rm
        self.gamma = gamma
        self.pedestal = pedestal
        self.rate = initial
        self._next_update = 0.0

    def target_delay(self) -> float:
        """The delay at which the current rate is the equilibrium.

        A non-zero ``pedestal`` keeps a standing queue of pedestal
        seconds at every rate (the way BBR's cwnd-limited mode keeps Rm
        of queueing) — this is what puts the Theorem 1 construction in
        the proof's Case 1, where d_min(C) > Rm + delta_max + eps and
        the shared queue is never empty.
        """
        return self.rm + self.pedestal + self.alpha / self.rate

    def initial_rate(self) -> float:
        return self.rate

    def step(self, t: float, dt: float, observed_rtt: float) -> float:
        if t < self._next_update:
            return self.rate
        self._next_update = t + self.rm
        if observed_rtt < self.target_delay():
            self.rate *= (1 + self.gamma)
        else:
            self.rate /= (1 + self.gamma)
        return self.rate

    def delta_bound(self) -> float:
        """Analytic bound on the equilibrium delay oscillation.

        One RTT at rate C(1+gamma) adds ~gamma*rm of delay; the limit
        cycle spans a few such steps plus the alpha/r threshold motion.
        Empirically <= 4*gamma*rm for gamma <= 0.1.
        """
        return 4 * self.gamma * self.rm


class WindowTargetCCA(FluidCCA):
    """A self-clocked, window-based delay-convergent CCA.

    Maintains a window ``w`` (bytes) and always sends at ``w / d`` — the
    fluid analogue of ACK clocking, which is what makes real window CCAs
    stable across orders of magnitude of link rate (the sending rate
    backs off automatically as delay rises even before the controller
    reacts). The controller is proportional in log-window space toward a
    target queueing delay of ``pedestal + alpha / rate``:

        d ln w / dt = kappa * clip(ln(q_target / q), -1, 1)

    On an ideal path of rate C it converges, C-independently damped, to
    d = Rm + pedestal + alpha/C with delta(C) -> 0. With pedestal > 0
    the equilibrium keeps a standing queue, which is what the Theorem 1
    construction's Case 1 requires.
    """

    def __init__(self, alpha: float = 6000.0, rm: float = 0.05,
                 pedestal: float = 0.04, kappa: float = 1.0,
                 initial: float = units.mbps(1.0)) -> None:
        if alpha <= 0 or rm <= 0 or pedestal < 0 or kappa <= 0:
            raise ConfigurationError("invalid WindowTargetCCA parameters")
        self.alpha = alpha
        self.rm = rm
        self.pedestal = pedestal
        self.kappa = kappa
        # Start from the window this rate would need at an empty queue.
        self.window = initial * (rm + pedestal)
        self._last_rtt = rm + pedestal

    def initial_rate(self) -> float:
        return self.window / self._last_rtt

    def target_queueing(self, observed_rtt: float) -> float:
        """pedestal + alpha/rate, with rate = w/d (self-clocked)."""
        return self.pedestal + self.alpha * observed_rtt / self.window

    def step(self, t: float, dt: float, observed_rtt: float) -> float:
        self._last_rtt = observed_rtt
        queueing = max(observed_rtt - self.rm, 1e-9)
        target = self.target_queueing(observed_rtt)
        drive = math.log(target / queueing)
        drive = min(max(drive, -1.0), 1.0)
        self.window *= math.exp(self.kappa * drive * dt)
        return self.window / observed_rtt


class FluidAimd(FluidCCA):
    """Fluid AIMD (Reno-style): the non-delay-convergent baseline.

    Increases rate additively and halves when the observed queueing delay
    exceeds ``threshold`` (a stand-in for a droptail loss at a full
    buffer) or when a loss is signalled, at most once per round trip.
    ``threshold=math.inf`` leaves signalled loss as the only backoff:
    the overflow-only AIMD of the Appendix C search. Its equilibrium
    delay oscillates over the whole buffer, so delta(C) is large — the
    paper's Section 6.2 argument for why AIMD resists small jitter.
    """

    def __init__(self, rm: float = 0.05, threshold: float = 0.05,
                 increase: float = units.mbps(0.2),
                 md_factor: float = 0.5,
                 initial: float = units.mbps(1.0)) -> None:
        self.rm = rm
        self.threshold = threshold
        self.increase = increase
        self.md_factor = md_factor
        self.rate = initial
        self._backoff_until = -math.inf

    def initial_rate(self) -> float:
        return self.rate

    def step(self, t: float, dt: float, observed_rtt: float) -> float:
        queueing = observed_rtt - self.rm
        if queueing > self.threshold and t >= self._backoff_until:
            self.rate *= self.md_factor
            # One backoff per "round trip" worth of time.
            self._backoff_until = t + observed_rtt
        else:
            self.rate += self.increase * dt / max(observed_rtt, 1e-3)
        return self.rate

    def on_loss(self, t: float) -> None:
        if t >= self._backoff_until:
            self.rate *= self.md_factor
            self._backoff_until = t + self.rm


class FluidJitterAware(FluidCCA):
    """Fluid version of the paper's Algorithm 1 (Section 6.3).

    AIMD on rate against the exponential map of Equation 2:

        mu(d) = mu_minus * s ** ((rmax - (d - rm)) / D)

    The update runs once per ``rm`` of fluid time (the paper: "the
    following is run every Rm ... change the rate by the same amount
    every RTT"). Like the packet :class:`repro.ccas.jitteraware.JitterAware`
    it also decreases multiplicatively on a signalled loss, and no
    decrease takes the rate below ``mu_minus * md_factor``.
    """

    def __init__(self, jitter_bound: float, s: float = 2.0,
                 rmax: float = 0.2, mu_minus: float = units.kbps(100),
                 additive_step: Optional[float] = None,
                 md_factor: float = 0.9, rm: float = 0.05,
                 initial: Optional[float] = None) -> None:
        if jitter_bound <= 0 or s <= 1 or not 0 < md_factor < 1:
            raise ConfigurationError("invalid Algorithm 1 parameters")
        self.jitter_bound = jitter_bound
        self.s = s
        self.rmax = rmax
        self.mu_minus = mu_minus
        self.additive_step = (additive_step if additive_step is not None
                              else mu_minus / 2)
        self.md_factor = md_factor
        self.rm = rm
        self.rate = initial if initial is not None else mu_minus
        self._next_update = 0.0

    def target(self, observed_rtt: float) -> float:
        queueing = max(0.0, observed_rtt - self.rm)
        exponent = (self.rmax - queueing) / self.jitter_bound
        return self.mu_minus * self.s ** exponent

    def initial_rate(self) -> float:
        return self.rate

    def step(self, t: float, dt: float, observed_rtt: float) -> float:
        if t < self._next_update:
            return self.rate
        self._next_update = t + self.rm
        if self.rate < self.target(observed_rtt):
            self.rate += self.additive_step
        else:   # above the map: the same decrease a loss gets
            self.on_loss(t)
        return self.rate

    def on_loss(self, t: float) -> None:
        self.rate = max(self.rate * self.md_factor,
                        self.mu_minus * self.md_factor)
