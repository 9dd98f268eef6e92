"""Fluid-flow network model of the paper's Section 3.

The proofs of Theorems 1-3 are stated over deterministic trajectories: a
single FIFO queue drained at a constant rate, a propagation delay Rm, and
a per-flow non-congestive delay eta(t) in [0, D]. This module is one
engine for those dynamics, integrated exactly (forward Euler on a fixed
grid) by :func:`run_shared_queue`:

      d*'(t) = (sum_i r_i(t) - C) / C   while the queue is non-empty,
      d*(t) >= Rm                       always,

and flow i observes d*(t) + eta_i(t). The ideal path of Definition 1 and
of every theorem's single-flow run is the same network with one flow and
eta = 0 (:func:`run_ideal_path`). Every flow's run comes back as a
:class:`Trajectory`.

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
    """One flow's recorded run: the delay it observed, the rate it sent.

    Attributes:
        times: sample grid (seconds), uniform spacing dt.
        delays: observed RTT d(t) at each sample.
        rates: sending rate r(t) at each sample (bytes/s).
        link_rate: the bottleneck rate C (bytes/s).
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


@dataclass
class SharedQueueRun:
    """A run of one or more fluid CCAs over one shared FIFO queue.

    Attributes:
        times: sample grid (seconds), uniform spacing dt.
        shared_delay: d*(t), Rm plus the shared queueing delay.
        flows: one :class:`Trajectory` per CCA, in order: the delay it
            observed, d*(t) + eta_i(t), and the rate it sent.
    """

    times: np.ndarray
    shared_delay: np.ndarray
    flows: List[Trajectory]

    def throughputs(self, t0: float = 0.0) -> List[float]:
        return [flow.throughput(t0) for flow in self.flows]

    def throughput_ratio(self, t0: float = 0.0) -> float:
        return fairness.throughput_ratio(self.throughputs(t0))


def run_ideal_path(cca, link_rate: float, rm: float, duration: float,
                   dt: float = 1e-3,
                   jitter: Optional[ElementSpec] = None) -> Trajectory:
    """Run a fluid CCA on an ideal path (optionally with added jitter).

    The ideal path is the shared queue with one flow; ``jitter`` (an
    element spec of one of :data:`FLUID_KINDS`, default ``no_jitter``)
    is that flow's eta(t), added to the *observed* delay only. Returns
    the flow's :class:`Trajectory`.
    """
    eta = jitter if jitter is not None else ElementSpec("no_jitter")
    return run_shared_queue([cca], link_rate, rm, duration, etas=[eta],
                            dt=dt).flows[0]


def run_shared_queue(ccas: Sequence, link_rate: float, rm: float,
                     duration: float,
                     etas: Sequence[ElementSpec],
                     initial_queue_delay: float = 0.0,
                     dt: float = 1e-3) -> SharedQueueRun:
    """Run fluid CCAs over one shared FIFO queue of rate ``link_rate``.

    Each flow i observes ``rm + queue_delay(t) + eta_i(t)``, where
    ``etas[i]`` is an element spec of one of :data:`FLUID_KINDS`. The
    adversary (Theorem 1) is a particular choice of the eta schedules and
    the initial queue delay.
    """
    # Written so that NaN fails: every comparison with it is False.
    for name, value in (("link_rate", link_rate), ("rm", rm),
                        ("duration", duration), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ConfigurationError(
                f"fluid run: {name} must be finite and > 0, got {value!r}")
    if not 0.0 <= initial_queue_delay < math.inf:
        raise ConfigurationError(
            f"fluid run: initial_queue_delay must be finite and >= 0, "
            f"got {initial_queue_delay!r}")
    if len(ccas) != len(etas):
        raise ConfigurationError("need one eta schedule per CCA")
    steps = int(round(duration / dt))
    grid = np.arange(steps) * dt
    # Every fluid kind's eta depends on t alone: evaluate each once
    # over the grid, before the loop.
    times = grid.tolist()
    eta_series = [[eta(t) for t in times] for eta in map(eta_schedule, etas)]
    # Flow k's rate log holds its rate for [t_i, t_i + dt) at index i.
    logs = [[cca.initial_rate()] for cca in ccas]
    flows = [(cca.step, series, log)
             for cca, series, log in zip(ccas, eta_series, logs)]
    shared = []
    queue_delay = float(initial_queue_delay)
    total = 0.0
    for log in logs:
        total += log[0]
    # Step i covers [t_i, t_i + dt); each CCA steps at its end.
    for i, after in enumerate((grid + dt).tolist()):
        base = rm + queue_delay
        shared.append(base)
        queue_delay += (total - link_rate) / link_rate * dt
        if queue_delay < 0.0:
            queue_delay = 0.0
        total = 0.0
        for step, series, log in flows:
            rate = step(after, dt, base + series[i])
            if rate < 0.0:
                rate = 0.0
            log.append(rate)
            total += rate
    shared_delay = np.array(shared, dtype=float)
    # Flow k observed base + eta_k[i] at step i: the same sums, at once.
    return SharedQueueRun(times=grid, shared_delay=shared_delay, flows=[
        Trajectory(times=grid,
                   delays=shared_delay + np.array(series, dtype=float),
                   rates=np.fromiter(log, float, steps),
                   link_rate=link_rate, rm=rm, dt=dt)
        for series, log in zip(eta_series, logs)])
