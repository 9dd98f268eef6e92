"""Fluid-flow network model of the paper's Section 3.

The proofs of Theorems 1-3 are stated over deterministic trajectories: a
single FIFO queue drained at a constant rate, a propagation delay Rm, and
a per-flow non-congestive delay eta(t) in [0, D]. This module integrates
those dynamics exactly (forward Euler on a fixed grid):

* ideal path (single flow, eta = 0):
      d'(t) = (r(t) - C) / C        while the queue is non-empty,
      d(t) >= Rm                    always;
* shared queue (two flows):
      d*'(t) = (r1(t) + r2(t) - C) / C,
  and flow i observes d*(t) + eta_i(t).

A non-congestive delay eta(t) is an :class:`~repro.spec.ElementSpec`,
the same data the packet simulator puts on a path, and it is played back
by the same code: the catalog element is built without a simulator and
asked for its ``extra_delay`` at each grid time. Only kinds whose delay
is a function of time alone qualify (:data:`FLUID_KINDS`).

A *fluid CCA* is a deterministic map from observed-delay history to a
sending rate, exposed as ``step(t, dt, observed_rtt) -> rate`` (see
:mod:`repro.model.cca`). Determinism is what lets the Theorem 1
construction replay single-flow trajectories inside a two-flow scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core import fairness
from ..errors import ConfigurationError
from ..spec.elements import ElementSpec

#: Element kinds whose delay depends on time alone, so a fluid run (which
#: has no packets) can evaluate them.
FLUID_KINDS = ("no_jitter", "constant_jitter", "step_trace_jitter")


def eta_schedule(spec: ElementSpec) -> Callable[[float], float]:
    """eta(t) of a time-only element spec, by the packet element's code."""
    if spec.kind not in FLUID_KINDS:
        raise ConfigurationError(
            f"the fluid model cannot play element {spec.kind!r}: its "
            f"delay is not a function of time alone (fluid kinds: "
            f"{', '.join(FLUID_KINDS)})")
    element = spec.factory()(None, None)
    return lambda t: element.extra_delay(None, t)


@dataclass
class Trajectory:
    """A recorded single-flow run on an ideal path.

    Attributes:
        times: sample grid (seconds), uniform spacing dt.
        delays: observed RTT d(t) at each sample.
        rates: sending rate r(t) at each sample (bytes/s).
        link_rate: the path's bottleneck rate C (bytes/s).
        rm: propagation RTT.
        dt: grid spacing.
    """

    times: np.ndarray
    delays: np.ndarray
    rates: np.ndarray
    link_rate: float
    rm: float
    dt: float

    def throughput(self, t0: float = 0.0) -> float:
        """Mean sending rate over [t0, end] (the fluid has no losses, so
        sending rate equals delivered rate up to the queue backlog)."""
        mask = self.times >= t0
        if not mask.any():
            return 0.0
        return float(self.rates[mask].mean())

    def delay_range(self, t0: float) -> tuple:
        """(d_min, d_max) over samples at times >= t0."""
        mask = self.times >= t0
        if not mask.any():
            return (math.nan, math.nan)
        window = self.delays[mask]
        return (float(window.min()), float(window.max()))

    def shifted(self, t0: float) -> "Trajectory":
        """Time-shift so that ``t0`` becomes the origin (the paper's
        bar-d / bar-r trajectories with the origin at convergence)."""
        mask = self.times >= t0 - 1e-12
        return Trajectory(
            times=self.times[mask] - self.times[mask][0],
            delays=self.delays[mask].copy(),
            rates=self.rates[mask].copy(),
            link_rate=self.link_rate,
            rm=self.rm,
            dt=self.dt,
        )


def run_ideal_path(cca, link_rate: float, rm: float, duration: float,
                   dt: float = 1e-3,
                   jitter: Optional[ElementSpec] = None) -> Trajectory:
    """Run a fluid CCA on an ideal path (optionally with added jitter).

    Args:
        cca: object with ``initial_rate()`` and ``step(t, dt, rtt)``.
        link_rate: bottleneck rate C, bytes/s.
        rm: propagation RTT, seconds.
        duration: run length, seconds.
        dt: integration step.
        jitter: optional eta(t), an element spec of one of
            :data:`FLUID_KINDS`, added to the *observed* delay (the
            network model's non-congestive element); the queue itself is
            unaffected.

    Returns a :class:`Trajectory` of observed delays and sending rates.
    """
    if link_rate <= 0 or rm <= 0 or duration <= 0 or dt <= 0:
        raise ConfigurationError("link_rate, rm, duration, dt must be > 0")
    eta = eta_schedule(jitter) if jitter is not None else None
    steps = int(round(duration / dt))
    times = np.arange(steps) * dt
    delays = np.empty(steps)
    rates = np.empty(steps)
    queue_delay = 0.0
    rate = cca.initial_rate()
    for i in range(steps):
        t = times[i]
        observed = rm + queue_delay + (eta(t) if eta is not None else 0.0)
        delays[i] = observed
        rates[i] = rate
        # Queue evolution over [t, t+dt).
        queue_delay += (rate - link_rate) / link_rate * dt
        if queue_delay < 0.0:
            queue_delay = 0.0
        rate = cca.step(t + dt, dt, observed)
        if rate < 0:
            rate = 0.0
    return Trajectory(times=times, delays=delays, rates=rates,
                      link_rate=link_rate, rm=rm, dt=dt)


@dataclass
class TwoFlowResult:
    """Result of a shared-queue two-flow fluid run."""

    times: np.ndarray
    shared_delay: np.ndarray      # d*(t): Rm + queueing delay
    observed_delays: List[np.ndarray]
    rates: List[np.ndarray]
    etas: List[np.ndarray]
    link_rate: float
    rm: float

    def throughputs(self, t0: float = 0.0) -> List[float]:
        mask = self.times >= t0
        return [float(r[mask].mean()) for r in self.rates]

    def throughput_ratio(self, t0: float = 0.0) -> float:
        return fairness.throughput_ratio(self.throughputs(t0))


def run_shared_queue(ccas: Sequence, link_rate: float, rm: float,
                     duration: float,
                     etas: Sequence[ElementSpec],
                     initial_queue_delay: float = 0.0,
                     dt: float = 1e-3) -> TwoFlowResult:
    """Run several fluid CCAs over one shared FIFO queue.

    Each flow i observes ``rm + queue_delay(t) + eta_i(t)``, where
    ``etas[i]`` is an element spec of one of :data:`FLUID_KINDS`. The
    adversary (Theorem 1) is a particular choice of the eta schedules and
    the initial queue delay.
    """
    if len(ccas) != len(etas):
        raise ConfigurationError("need one eta schedule per CCA")
    schedules = [eta_schedule(spec) for spec in etas]
    steps = int(round(duration / dt))
    times = np.arange(steps) * dt
    n = len(ccas)
    shared = np.empty(steps)
    observed = [np.empty(steps) for _ in range(n)]
    rates = [np.empty(steps) for _ in range(n)]
    eta_series = [np.empty(steps) for _ in range(n)]
    queue_delay = float(initial_queue_delay)
    current = [cca.initial_rate() for cca in ccas]
    for i in range(steps):
        t = times[i]
        shared[i] = rm + queue_delay
        total_rate = 0.0
        for k in range(n):
            eta = schedules[k](t)
            eta_series[k][i] = eta
            obs = rm + queue_delay + eta
            observed[k][i] = obs
            rates[k][i] = current[k]
            total_rate += current[k]
        queue_delay += (total_rate - link_rate) / link_rate * dt
        if queue_delay < 0.0:
            queue_delay = 0.0
        for k in range(n):
            new_rate = ccas[k].step(t + dt, dt, observed[k][i])
            current[k] = max(new_rate, 0.0)
    return TwoFlowResult(times=times, shared_delay=shared,
                         observed_delays=observed, rates=rates,
                         etas=eta_series, link_rate=link_rate, rm=rm)
