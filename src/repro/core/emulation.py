"""Step 3 of Theorem 1: delay-trajectory emulation in a two-flow network.

Given the post-convergence single-flow trajectories ``bar_d1, bar_d2``
(delays) and ``bar_r1, bar_r2`` (rates) on ideal links of rates C1 and
C2, the construction runs both flows on one shared queue of rate C1+C2
and chooses per-flow non-congestive delays so each flow observes exactly
its single-flow delay trajectory — and therefore (determinism) sends at
exactly its single-flow rate. The shared delay follows Equation 5:

    d*(t) = (C1*bar_d1(t) + C2*bar_d2(t)) / (C1+C2) - (delta_max + eps)

and the per-flow jitter is ``eta_i(t) = bar_di(t) - d*(t)``, feasible
(0 <= eta <= D) exactly when D >= 2*(delta_max + eps) and both delay
trajectories stay within a common interval of width delta_max + eps.
That is the proof's Case 1 (:func:`build_emulation_plan`); Case 2's plan
is :func:`build_fast_link_plan`. :func:`check_feasible` judges either.

Every construction replays a recorded delay trajectory as a
non-congestive delay; :func:`step_trace` spells such a replay as the
``step_trace_jitter`` element both simulators play.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, EmulationInfeasibleError
from ..model.fluid import Trajectory
from ..spec.elements import ElementSpec


def step_trace(times: np.ndarray, etas: np.ndarray) -> ElementSpec:
    """The ``step_trace_jitter`` spec holding ``etas[i]`` from
    ``times[i]`` on, clipped at 0 (a grid's rounding may dip below)."""
    values = np.maximum(np.asarray(etas, dtype=float), 0.0)
    return ElementSpec("step_trace_jitter", {
        "steps": list(zip(np.asarray(times, dtype=float).tolist(),
                          values.tolist()))})


@dataclass
class EmulationPlan:
    """The constructed two-flow adversary.

    Attributes:
        times: shared time grid (starting at 0, the convergence origin).
        d_star: planned shared delay d*(t) (Rm + queueing delay).
        eta1 / eta2: per-flow non-congestive delay schedules.
        initial_queue_delay: d*(0) - Rm, the queue the adversary pre-fills.
        link_rate: C1 + C2.
        c1 / c2: the component link rates.
        rm: propagation RTT.
        slack: delta_max + eps used in Equation 5.
    """

    times: np.ndarray
    d_star: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    initial_queue_delay: float
    link_rate: float
    c1: float
    c2: float
    rm: float
    slack: float

    @property
    def max_eta(self) -> float:
        return float(max(self.eta1.max(), self.eta2.max()))

    @property
    def min_eta(self) -> float:
        return float(min(self.eta1.min(), self.eta2.min()))


def check_feasible(plan: EmulationPlan, jitter_bound: float,
                   tolerance: float = 1e-9) -> None:
    """Raise :class:`EmulationInfeasibleError` unless 0 <= eta <= D."""
    for label, etas in (("flow 1", plan.eta1), ("flow 2", plan.eta2)):
        lowest = float(etas.min())
        highest = float(etas.max())
        if lowest < -tolerance:
            index = int(etas.argmin())
            raise EmulationInfeasibleError(
                f"{label} needs negative non-congestive delay "
                f"{lowest:.6g} at t={plan.times[index]:.4f}",
                time=float(plan.times[index]), required_delay=lowest)
        if highest > jitter_bound + tolerance:
            index = int(etas.argmax())
            raise EmulationInfeasibleError(
                f"{label} needs eta={highest:.6g} > D={jitter_bound:.6g} "
                f"at t={plan.times[index]:.4f}",
                time=float(plan.times[index]), required_delay=highest)
    if plan.initial_queue_delay < -tolerance:
        raise EmulationInfeasibleError(
            f"initial queue delay {plan.initial_queue_delay:.6g} < 0 "
            "(Case 1 of the proof requires d*(0) >= Rm)")


def _post_convergence(traj1: Trajectory, traj2: Trajectory,
                      t_conv1: float, t_conv2: float):
    """The common grid and bar_d1, bar_d2: both delay trajectories from
    their convergence times on, over the length both runs cover."""
    if abs(traj1.dt - traj2.dt) > 1e-12:
        raise ConfigurationError("trajectories must share the same dt")
    if abs(traj1.rm - traj2.rm) > 1e-12:
        raise ConfigurationError("trajectories must share the same Rm")
    bar1 = traj1.shifted(t_conv1)
    bar2 = traj2.shifted(t_conv2)
    n = min(len(bar1.times), len(bar2.times))
    if n < 2:
        raise ConfigurationError("post-convergence overlap too short")
    return bar1.times[:n], bar1.delays[:n], bar2.delays[:n]


def build_emulation_plan(traj1: Trajectory, traj2: Trajectory,
                         t_conv1: float, t_conv2: float,
                         delta_max: float, epsilon: float,
                         jitter_bound: float) -> EmulationPlan:
    """Construct the Equation 5 adversary from two single-flow runs.

    Args:
        traj1 / traj2: ideal-path trajectories on links C1 and C2.
        t_conv1 / t_conv2: the flows' convergence times T1, T2.
        delta_max: the CCA's equilibrium-oscillation bound.
        epsilon: the pigeonhole bucket width (the proof's eps,
            typically D/2 - delta_max).
        jitter_bound: the network model's D; must exceed
            2*(delta_max + epsilon) up to rounding.

    Returns a feasible :class:`EmulationPlan` (raises
    :class:`EmulationInfeasibleError` otherwise).
    """
    times, d1, d2 = _post_convergence(traj1, traj2, t_conv1, t_conv2)
    c1 = traj1.link_rate
    c2 = traj2.link_rate
    slack = delta_max + epsilon
    weighted = (c1 * d1 + c2 * d2) / (c1 + c2)
    d_star = weighted - slack
    eta1 = d1 - d_star
    eta2 = d2 - d_star
    plan = EmulationPlan(times=times, d_star=d_star, eta1=eta1, eta2=eta2,
                         initial_queue_delay=float(d_star[0] - traj1.rm),
                         link_rate=c1 + c2, c1=c1, c2=c2, rm=traj1.rm,
                         slack=slack)
    check_feasible(plan, jitter_bound)
    return plan


def build_fast_link_plan(traj1: Trajectory, traj2: Trajectory,
                         t_conv1: float, t_conv2: float,
                         delta_max: float, epsilon: float,
                         jitter_bound: float) -> EmulationPlan:
    """Case 2's adversary, from :func:`build_emulation_plan`'s arguments:
    the faster rate's queueing is below delta_max + eps, so a shared link
    of 1000 x (C1 + C2) keeps its own queue empty (d* = Rm) and
    ``eta_i(t) = bar_di(t) - Rm`` emulates both flows directly."""
    times, d1, d2 = _post_convergence(traj1, traj2, t_conv1, t_conv2)
    rm = traj1.rm
    c1 = traj1.link_rate
    c2 = traj2.link_rate
    plan = EmulationPlan(times=times, d_star=np.full(len(times), rm),
                         eta1=d1 - rm, eta2=d2 - rm, initial_queue_delay=0.0,
                         link_rate=1000.0 * (c1 + c2), c1=c1, c2=c2, rm=rm,
                         slack=delta_max + epsilon)
    check_feasible(plan, jitter_bound)
    return plan


def verify_shared_delay(plan: EmulationPlan, traj1: Trajectory,
                        traj2: Trajectory, t_conv1: float, t_conv2: float,
                        tolerance: float = 1e-6) -> float:
    """Check Equation 3/5 consistency by integrating the shared queue.

    Integrates ``d*'(t) = (r1 + r2 - (C1+C2)) / (C1+C2)`` from the plan's
    initial condition using the recorded single-flow rates, and returns
    the maximum absolute deviation from the plan's closed-form d*(t).
    This is the proof's induction argument, done numerically.
    """
    bar1 = traj1.shifted(t_conv1)
    bar2 = traj2.shifted(t_conv2)
    n = len(plan.times)
    r_total = bar1.rates[:n] + bar2.rates[:n]
    dt = float(plan.times[1] - plan.times[0])
    c_total = plan.link_rate
    d = float(plan.d_star[0])
    worst = 0.0
    for i in range(n):
        worst = max(worst, abs(d - float(plan.d_star[i])))
        d += (float(r_total[i]) - c_total) / c_total * dt
        if d < plan.rm:
            d = plan.rm
    if worst > tolerance:
        raise EmulationInfeasibleError(
            f"integrated d* deviates from Equation 5 by {worst:.3g} "
            f"(> {tolerance:.3g}); the single-flow queues were not "
            "always non-empty (Case 1 assumption violated)")
    return worst
