"""Unit tests for the Equation 5 emulation plan (repro.core.emulation)."""

import numpy as np
import pytest

from repro.core.emulation import (EmulationPlan, build_emulation_plan,
                                  build_fast_link_plan, check_feasible,
                                  step_trace)
from repro.errors import (ConfigurationError, EmulationInfeasibleError)
from repro.model.fluid import Trajectory, eta_schedule
from repro.spec import ElementSpec

RM = 0.05


def make_trajectory(delays, rates, link_rate, dt=1e-3, rm=RM):
    n = len(delays)
    return Trajectory(times=np.arange(n) * dt,
                      delays=np.asarray(delays, dtype=float),
                      rates=np.asarray(rates, dtype=float),
                      link_rate=link_rate, rm=rm, dt=dt)


def flat_trajectory(delay, rate, link_rate, n=1000):
    return make_trajectory([delay] * n, [rate] * n, link_rate)


def test_plan_matches_equation_5_closed_form():
    c1, c2 = 1e6, 2e7
    d1, d2 = RM + 0.045, RM + 0.0442
    traj1 = flat_trajectory(d1, c1, c1)
    traj2 = flat_trajectory(d2, c2, c2)
    delta_max, eps = 0.0005, 0.0005
    plan = build_emulation_plan(traj1, traj2, 0.0, 0.0, delta_max, eps,
                                jitter_bound=0.01)
    weighted = (c1 * d1 + c2 * d2) / (c1 + c2)
    assert plan.d_star[0] == pytest.approx(weighted - delta_max - eps)
    assert plan.eta1[0] == pytest.approx(d1 - plan.d_star[0])
    assert plan.eta2[0] == pytest.approx(d2 - plan.d_star[0])
    assert plan.link_rate == c1 + c2


def test_etas_bounded_by_construction():
    """If both delay ranges fit in a slack-wide interval, every eta is
    in [0, 2*slack] — the proof's feasibility argument."""
    c1, c2 = 1e6, 2e7
    slack = 0.001
    rng = np.random.default_rng(1)
    base = RM + 0.04
    d1 = base + rng.uniform(0, slack, 800)
    d2 = base + rng.uniform(0, slack, 800)
    traj1 = make_trajectory(d1, [c1] * 800, c1)
    traj2 = make_trajectory(d2, [c2] * 800, c2)
    plan = build_emulation_plan(traj1, traj2, 0.0, 0.0,
                                delta_max=slack, epsilon=0.0,
                                jitter_bound=2 * slack)
    assert plan.min_eta >= 0.0
    assert plan.max_eta <= 2 * slack + 1e-12


def test_infeasible_when_delays_too_far_apart():
    c1, c2 = 1e6, 2e7
    traj1 = flat_trajectory(RM + 0.06, c1, c1)
    traj2 = flat_trajectory(RM + 0.01, c2, c2)   # 50 ms apart
    with pytest.raises(EmulationInfeasibleError):
        build_emulation_plan(traj1, traj2, 0.0, 0.0, delta_max=0.001,
                             epsilon=0.001, jitter_bound=0.004)


def test_infeasible_when_initial_queue_negative():
    # Delays so close to Rm that subtracting the slack dips below Rm.
    c1, c2 = 1e6, 2e7
    traj1 = flat_trajectory(RM + 0.0005, c1, c1)
    traj2 = flat_trajectory(RM + 0.0006, c2, c2)
    with pytest.raises(EmulationInfeasibleError):
        build_emulation_plan(traj1, traj2, 0.0, 0.0, delta_max=0.001,
                             epsilon=0.001, jitter_bound=0.004)


def test_fast_link_plan_is_case_2():
    """Case 2: an empty queue on a 1000x faster link, each flow's whole
    queueing delay played as its eta."""
    c1, c2 = 1e6, 2e7
    traj1 = flat_trajectory(RM + 0.003, c1, c1)
    traj2 = flat_trajectory(RM + 0.0001, c2, c2)
    plan = build_fast_link_plan(traj1, traj2, 0.0, 0.0, delta_max=0.001,
                                epsilon=0.001, jitter_bound=0.004)
    assert (plan.d_star == RM).all()
    assert plan.initial_queue_delay == 0.0
    assert plan.link_rate == 1000.0 * (c1 + c2)
    assert (plan.eta1 == traj1.delays - RM).all()
    assert (plan.eta2 == traj2.delays - RM).all()


def test_fast_link_plan_judged_by_check_feasible():
    """A queueing delay above D is refused with check_feasible's report,
    which names the flow and the eta it needs."""
    c1, c2 = 1e6, 2e7
    traj1 = flat_trajectory(RM + 0.005, c1, c1)
    traj2 = flat_trajectory(RM + 0.0001, c2, c2)
    with pytest.raises(EmulationInfeasibleError,
                       match=r"flow 1 needs eta=0\.005 > D=0\.004") as excinfo:
        build_fast_link_plan(traj1, traj2, 0.0, 0.0, delta_max=0.001,
                             epsilon=0.001, jitter_bound=0.004)
    assert excinfo.value.required_delay == pytest.approx(0.005)


def test_mismatched_grids_rejected():
    traj1 = flat_trajectory(RM + 0.04, 1e6, 1e6)
    traj2 = make_trajectory([RM + 0.04] * 100, [2e7] * 100, 2e7, dt=2e-3)
    with pytest.raises(ConfigurationError):
        build_emulation_plan(traj1, traj2, 0.0, 0.0, 0.001, 0.001, 0.004)


def test_step_trace_step_interpolation():
    plan = EmulationPlan(
        times=np.array([0.0, 0.1, 0.2]),
        d_star=np.array([RM, RM, RM]),
        eta1=np.array([0.01, 0.02, 0.03]),
        eta2=np.zeros(3), initial_queue_delay=0.0, link_rate=1e6,
        c1=5e5, c2=5e5, rm=RM, slack=0.001)
    spec = step_trace(plan.times, plan.eta1)
    assert spec == ElementSpec.from_json(spec.to_json())
    eta = eta_schedule(spec)
    assert eta(0.0) == 0.01
    assert eta(0.05) == 0.01
    assert eta(0.1) == 0.02                   # a grid time reads its own
    assert eta(0.15) == 0.02
    assert eta(99.0) == 0.03                  # holds the last value


def test_step_trace_clips_at_zero():
    """Rounding can put an eta a hair below 0 inside check_feasible's
    tolerance; the replay plays 0 there instead of refusing the trace."""
    eta = eta_schedule(step_trace(np.array([0.0, 1.0]),
                                  np.array([-1e-12, 0.02])))
    assert eta(0.5) == 0.0
    assert eta(1.0) == 0.02


def test_check_feasible_reports_offending_time():
    plan = EmulationPlan(
        times=np.array([0.0, 0.1]),
        d_star=np.array([RM, RM]),
        eta1=np.array([0.0, 0.05]),
        eta2=np.zeros(2), initial_queue_delay=0.0, link_rate=1e6,
        c1=5e5, c2=5e5, rm=RM, slack=0.001)
    with pytest.raises(EmulationInfeasibleError) as excinfo:
        check_feasible(plan, jitter_bound=0.01)
    assert excinfo.value.time == pytest.approx(0.1)
    assert excinfo.value.required_delay == pytest.approx(0.05)


def test_shifted_trajectories_align_at_convergence_times():
    c1, c2 = 1e6, 2e7
    # Different convergence times: the plan must align both at t=0.
    d1 = [1.0] * 500 + [RM + 0.045] * 1000
    d2 = [1.0] * 200 + [RM + 0.0448] * 1300
    traj1 = make_trajectory(d1, [c1] * 1500, c1)
    traj2 = make_trajectory(d2, [c2] * 1500, c2)
    plan = build_emulation_plan(traj1, traj2, t_conv1=0.5, t_conv2=0.2,
                                delta_max=0.001, epsilon=0.001,
                                jitter_bound=0.004)
    # The transient (delay 1.0) never appears in the plan.
    assert plan.d_star.max() < RM + 0.05
    assert len(plan.times) == 1000  # min of the two suffixes
