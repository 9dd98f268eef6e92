"""End-to-end constructors for the paper's three theorems.

* :func:`construct_starvation` — Theorem 1: for a deterministic,
  f-efficient, delay-convergent (fluid) CCA and any s >= 1, build a
  two-flow scenario with throughput ratio >= s whenever D > 2*delta_max.
* :func:`construct_underutilization` — Theorem 2: when d_max(C) <= D for
  some C, emulate the small link's delays on an arbitrarily fast link,
  driving utilization to ~C/C' -> 0.
* :func:`construct_strong_model_starvation` — Theorem 3: in the strong
  model (adversary also controls the queueing delay), iteratively
  subtract D from the delay trace until the throughputs of consecutive
  traces differ by more than s; run the pair on one queue with eta = D
  vs eta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..errors import ConvergenceError, EmulationInfeasibleError
from ..model.fluid import (SharedQueueRun, Trajectory, run_ideal_path,
                           run_shared_queue)
from .convergence import ConvergedRange, measure_converged_range
from .emulation import (EmulationPlan, build_emulation_plan,
                        build_fast_link_plan, step_trace)
from .pigeonhole import PigeonholePair, find_pigeonhole_pair


@dataclass
class StarvationConstruction:
    """Everything Theorem 1 produces for one CCA.

    ``case`` records which branch of the proof applied: 1 = the shared
    queue is never empty and d*(t) follows Equation 5; 2 = the faster
    rate's queueing is below delta_max + eps, so a much faster shared
    link with eta_i = bar_d_i - Rm emulates both flows directly.
    """

    pair: PigeonholePair
    plan: EmulationPlan
    traj1: Trajectory
    traj2: Trajectory
    two_flow: SharedQueueRun
    s_target: float
    jitter_bound: float
    case: int

    @property
    def achieved_ratio(self) -> float:
        return self.two_flow.throughput_ratio()

    @property
    def starved(self) -> bool:
        return self.achieved_ratio >= self.s_target


def construct_starvation(cca_factory: Callable[[float], object],
                         rm: float, s: float, f: float,
                         delta_max: float,
                         jitter_bound: Optional[float] = None,
                         lam: Optional[float] = None,
                         d_max_bound: Optional[float] = None,
                         duration: float = 30.0,
                         emulate_duration: float = 10.0,
                         dt: float = 1e-3) -> StarvationConstruction:
    """Run the full Theorem 1 pipeline on a fluid CCA.

    Args:
        cca_factory: ``cca_factory(initial_rate)`` returns a fresh,
            deterministic fluid CCA (see :mod:`repro.model.cca`). The
            initial rate argument lets Step 3 start the two-flow run
            from the converged states.
        rm: propagation RTT.
        s: target throughput ratio (>= 1).
        f: efficiency constant of the CCA (0 < f <= 1).
        delta_max: the CCA's equilibrium-oscillation bound.
        jitter_bound: the model's D; default 2*delta_max + 4*epsilon
            with epsilon chosen from the delay space. Must satisfy
            D > 2*delta_max.
        lam: rate floor for Definition 1 (default: 10 packets per rm).
        d_max_bound: delay-space ceiling (default: measured at lam with
            10% headroom).
        duration: single-flow run length used to measure convergence.
        emulate_duration: post-convergence horizon emulated in two-flow.
        dt: integration step.
    """
    if lam is None:
        lam = 10 * 1500 / rm
    measured_cache = {}

    def measure(rate: float) -> ConvergedRange:
        if rate not in measured_cache:
            traj = run_ideal_path(cca_factory(rate / 2), rate, rm,
                                  duration, dt)
            measured_cache[rate] = (traj,
                                    measure_converged_range(traj))
        return measured_cache[rate][1]

    base = measure(lam)
    if d_max_bound is None:
        d_max_bound = base.d_max * 1.1
    if jitter_bound is None:
        epsilon = max((d_max_bound - rm) / 40, delta_max / 4, dt)
        jitter_bound = 2 * (delta_max + epsilon) * 1.01
    else:
        if jitter_bound <= 2 * delta_max:
            raise ConvergenceError(
                f"Theorem 1 needs D > 2*delta_max "
                f"(D={jitter_bound}, delta_max={delta_max})")
        epsilon = jitter_bound / 2 - delta_max

    pair = find_pigeonhole_pair(measure, lam, s, f, epsilon, rm,
                                d_max_bound)
    traj1 = measured_cache[pair.c1.link_rate][0]
    traj2 = measured_cache[pair.c2.link_rate][0]

    slack = delta_max + epsilon
    case = 1 if min(pair.c1.d_min, pair.c2.d_min) > rm + slack else 2
    build_plan = build_emulation_plan if case == 1 else build_fast_link_plan
    plan = build_plan(traj1, traj2, pair.c1.t_converged,
                      pair.c2.t_converged, delta_max, epsilon, jitter_bound)

    # Step 3: run the two flows on the shared queue from their converged
    # states, with the planned jitter schedules.
    horizon = min(emulate_duration, float(plan.times[-1]))
    rate1_0 = float(traj1.shifted(pair.c1.t_converged).rates[0])
    rate2_0 = float(traj2.shifted(pair.c2.t_converged).rates[0])
    cca1 = cca_factory(rate1_0)
    cca2 = cca_factory(rate2_0)
    two_flow = run_shared_queue(
        [cca1, cca2], link_rate=plan.link_rate, rm=rm,
        duration=horizon,
        etas=[step_trace(plan.times, plan.eta1),
              step_trace(plan.times, plan.eta2)],
        initial_queue_delay=plan.initial_queue_delay, dt=dt)
    return StarvationConstruction(pair=pair, plan=plan, traj1=traj1,
                                  traj2=traj2, two_flow=two_flow,
                                  s_target=s, jitter_bound=jitter_bound,
                                  case=case)


@dataclass
class UnderutilizationConstruction:
    """Theorem 2's output: a fast link the CCA leaves almost idle."""

    small_rate: float
    big_rate: float
    trajectory: Trajectory        # single-flow run on the small link
    emulated: Trajectory          # run on the big link with emulated delay
    utilization: float
    jitter_bound: float

    @property
    def starved_factor(self) -> float:
        """How much capacity the CCA failed to use (C'/throughput)."""
        tput = self.emulated.throughput()
        return self.big_rate / tput if tput > 0 else math.inf


def construct_underutilization(cca_factory: Callable[[], object],
                               small_rate: float, rm: float,
                               jitter_bound: float,
                               big_rate_factor: float = 100.0,
                               duration: float = 30.0,
                               dt: float = 1e-3
                               ) -> UnderutilizationConstruction:
    """Theorem 2: emulate a slow link's delays on a fast link.

    Requires the CCA's queueing delay on the slow link to stay <= D
    (the theorem's d_max(C) <= D condition, with delays measured above
    Rm). The fast link's own queueing stays ~0 because the CCA sends at
    ~small_rate << big_rate; the jitter element supplies the remainder.
    """
    trajectory = run_ideal_path(cca_factory(), small_rate, rm, duration, dt)
    queueing = trajectory.delays - rm
    worst = float(queueing.max())
    if worst > jitter_bound + 1e-9:
        raise EmulationInfeasibleError(
            f"queueing delay on the small link reaches {worst:.6f} > "
            f"D={jitter_bound:.6f}; Theorem 2's premise fails",
            required_delay=worst)
    big_rate = small_rate * big_rate_factor
    emulated = run_ideal_path(
        cca_factory(), big_rate, rm, duration, dt,
        jitter=step_trace(trajectory.times, trajectory.delays - rm))
    utilization = emulated.throughput(duration / 2) / big_rate
    return UnderutilizationConstruction(
        small_rate=small_rate, big_rate=big_rate, trajectory=trajectory,
        emulated=emulated, utilization=utilization,
        jitter_bound=jitter_bound)


@dataclass
class StrongModelConstruction:
    """Theorem 3's output: consecutive traces with throughput ratio > s."""

    traces: List[Trajectory]
    chosen_index: int             # traces[i] vs traces[i+1] starve
    ratio: float
    jitter_bound: float
    s_target: float

    @property
    def starved(self) -> bool:
        return self.ratio >= self.s_target


def construct_strong_model_starvation(cca_factory: Callable[[], object],
                                      base_rate: float, rm: float,
                                      s: float,
                                      duration: float = 30.0,
                                      dt: float = 1e-3,
                                      max_steps: int = 64
                                      ) -> StrongModelConstruction:
    """Theorem 3: iterated delay-subtraction in the strong model.

    Trace 0 runs the CCA on an ideal link of rate ``base_rate``; D is set
    to the maximum queueing delay observed. Trace k+1 replays trace k's
    queueing delay minus D (clamped at 0) via the strong adversary. The
    throughputs of consecutive traces must eventually differ by a factor
    >= s (f-efficiency forces unbounded throughput once the delay trace
    hits zero); the first such pair is returned.
    """
    first = run_ideal_path(cca_factory(), base_rate, rm, duration, dt)
    jitter_bound = float((first.delays - rm).max())
    if jitter_bound <= 0:
        raise ConvergenceError("base trace has no queueing delay to subtract")
    traces = [first]
    # A link fast enough that its own queueing is negligible: the strong
    # adversary supplies all delay via eta.
    fast_rate = base_rate * 1e6
    current_delays = first.delays.copy()
    for step in range(max_steps):
        next_queueing = np.maximum(current_delays - rm - jitter_bound, 0.0)
        trace = run_ideal_path(cca_factory(), fast_rate, rm, duration, dt,
                               jitter=step_trace(first.times, next_queueing))
        traces.append(trace)
        t_half = duration / 2
        previous = traces[-2].throughput(t_half)
        current = trace.throughput(t_half)
        if previous > 0 and (current / previous >= s
                             or (previous / max(current, 1e-12)) >= s):
            ratio = max(current / previous,
                        previous / max(current, 1e-12))
            return StrongModelConstruction(
                traces=traces, chosen_index=len(traces) - 2, ratio=ratio,
                jitter_bound=jitter_bound, s_target=s)
        if float(next_queueing.max()) <= 0:
            # Delay trace hit zero without a ratio jump: the CCA is not
            # f-efficient in the strong model for this horizon.
            break
        current_delays = rm + next_queueing
    raise ConvergenceError(
        "no consecutive-trace ratio >= s found within the horizon; "
        "lengthen the run or increase max_steps")
