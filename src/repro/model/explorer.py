"""Bounded adversarial trace search — the offline CCAC substitute.

The paper uses the CCAC SMT verifier (extended to multiple flows in
Appendix C) for two jobs:

1. *find* network behaviors that break a CCA (unfairness,
   under-utilization);
2. *prove the absence* of such behaviors over short horizons.

z3 is not available in this environment, so this module reimplements
both jobs over a discretized version of the Section 3 model:

* the flows are fluid CCAs (:mod:`repro.model.cca`), driven through
  ``initial_rate`` / ``step`` / ``on_loss``; the search branches with
  ``clone_state()`` and never touches the CCAs it is given;
* time advances in steps of one Rm, in the fluid engine's order:
  every flow sends ``rate * Rm`` bytes into one droptail queue that
  serves ``C * Rm`` a step, then observes ``Rm + queueing delay +
  jitter`` and steps its CCA. A flow that had bytes dropped by overflow
  (or, with loss injection, that the adversary chose) gets ``on_loss``
  first;
* the adversary chooses, per flow and per step, a jitter value from
  ``{0, D}`` (the extreme points — the model's delay set is an interval,
  and the CCAs here react monotonically to delay, so extremes maximize
  harm) and optionally a non-congestive loss;
* job 1 runs guided random rollouts whose greedy steps score each
  adversary choice held to the horizon;
* job 2 runs exhaustive enumeration over all adversary choices up to a
  small horizon. Unlike CCAC's relaxed SMT encoding this is exact over
  the discretized adversary; like CCAC it says nothing beyond the
  horizon.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..core import fairness
from ..errors import ConfigurationError
from .cca import FluidCCA


@dataclass
class NetParams:
    """Discretized Section 3 network."""

    link_rate: float                 # bytes/s
    rm: float                        # step length, seconds
    jitter_bound: float              # D
    buffer_bytes: float = math.inf   # droptail capacity
    allow_loss_injection: bool = False

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if (not self.link_rate > 0 or not self.rm > 0
                or not self.jitter_bound >= 0):
            raise ConfigurationError("invalid network parameters")


@dataclass
class TraceStep:
    """One step of adversary choices: per-flow jitter and loss."""

    jitters: Tuple[float, ...]
    losses: Tuple[bool, ...]


@dataclass
class TraceResult:
    """Outcome of simulating one adversary trace."""

    steps: List[TraceStep]
    delivered: List[float]           # per-flow delivered bytes
    queue_history: List[float]
    objective: float

    def throughput_ratio(self) -> float:
        return fairness.throughput_ratio(self.delivered)

    def utilization(self, link_rate: float, rm: float) -> float:
        total_capacity = link_rate * rm * len(self.steps)
        if total_capacity <= 0:
            return 0.0
        return sum(self.delivered) / total_capacity


def simulate_trace(ccas: Sequence[FluidCCA], net: NetParams,
                   steps: Sequence[TraceStep]) -> TraceResult:
    """Deterministically run a trace of adversary choices on clones of
    ``ccas``."""
    states = [cca.clone_state() for cca in ccas]
    rates = [state.initial_rate() for state in states]
    queue = 0.0
    delivered = [0.0] * len(states)
    queue_history: List[float] = []
    capacity = net.link_rate * net.rm
    t = 0.0
    for step in steps:
        sends = [max(rate, 0.0) * net.rm for rate in rates]
        arrivals = sum(sends)
        overflow = max(0.0, arrivals - (net.buffer_bytes - queue))
        queue += arrivals - overflow
        served = min(queue, capacity)
        queue -= served
        queue_history.append(queue)
        # Accumulated, not k * rm: a CCA that updates once per rm sets
        # its next update to t + rm and must find it reached exactly.
        t += net.rm
        observed = net.rm + queue / net.link_rate
        for i, state in enumerate(states):
            share = sends[i] / arrivals if arrivals > 0 else 0.0
            delivered[i] += served * share
            if overflow * share > 0.0 or (net.allow_loss_injection
                                          and step.losses[i]):
                state.on_loss(t)
            rates[i] = state.step(t, net.rm, observed + step.jitters[i])
    return TraceResult(steps=list(steps), delivered=delivered,
                       queue_history=queue_history, objective=0.0)


#: An objective maps a TraceResult to a score to MAXIMIZE.
Objective = Callable[[TraceResult], float]


def unfairness_objective(result: TraceResult) -> float:
    """Throughput ratio between the luckiest and unluckiest flow."""
    ratio = result.throughput_ratio()
    return 1e12 if math.isinf(ratio) else ratio


def underutilization_objective(net: NetParams) -> Objective:
    """1 - utilization (bigger = worse for the CCA)."""

    def objective(result: TraceResult) -> float:
        return 1.0 - result.utilization(net.link_rate, net.rm)

    return objective


@dataclass
class SearchReport:
    """Result of an adversarial search."""

    best: TraceResult
    traces_evaluated: int
    exhaustive: bool
    horizon: int

    @property
    def best_objective(self) -> float:
        return self.best.objective


def _adversary_choices(n_flows: int, net: NetParams) -> List[TraceStep]:
    jitter_options = itertools.product((0.0, net.jitter_bound),
                                       repeat=n_flows)
    if net.allow_loss_injection:
        loss_options = list(itertools.product((False, True),
                                              repeat=n_flows))
    else:
        loss_options = [(False,) * n_flows]
    return [TraceStep(j, l) for j in jitter_options for l in loss_options]


def _score(ccas: Sequence[FluidCCA], net: NetParams, objective: Objective,
           steps: Sequence[TraceStep]) -> TraceResult:
    result = simulate_trace(ccas, net, steps)
    result.objective = objective(result)
    return result


def exhaustive_search(ccas: Sequence[FluidCCA], net: NetParams,
                      horizon: int, objective: Objective,
                      max_traces: int = 2_000_000) -> SearchReport:
    """Enumerate every adversary trace up to ``horizon`` steps.

    This is the "prove absence over short horizons" job: if the returned
    best objective is below a threshold, no discretized adversary of
    this length can do better (exactly — no relaxation).
    """
    choices = _adversary_choices(len(ccas), net)
    total = len(choices) ** horizon
    if total > max_traces:
        raise ConfigurationError(
            f"{total} traces exceed the max_traces budget {max_traces}; "
            "reduce the horizon or use guided_search")
    best = max((_score(ccas, net, objective, combo)
                for combo in itertools.product(choices, repeat=horizon)),
               key=lambda result: result.objective)
    return SearchReport(best=best, traces_evaluated=total,
                        exhaustive=True, horizon=horizon)


def guided_search(ccas: Sequence[FluidCCA], net: NetParams,
                  horizon: int, objective: Objective,
                  rollouts: int = 200, seed: int = 0,
                  greedy_fraction: float = 0.5) -> SearchReport:
    """Randomized rollouts with epsilon-greedy per-step choice.

    The "find bad behavior" job: each rollout builds a trace step by
    step. With probability ``greedy_fraction`` the step takes the choice
    that scores best when *held* from that step to the horizon, otherwise
    a uniformly random one. Holding matters: a CCA's response to a delay
    lags it by several steps, which a one-step prefix never sees, and a
    constant jitter is exactly Theorem 1's adversary. Every trace scored
    along the way competes for the reported best.
    """
    choices = _adversary_choices(len(ccas), net)
    rng = random.Random(seed)
    best: Optional[TraceResult] = None
    evaluated = 0

    def run(steps: List[TraceStep]) -> float:
        nonlocal best, evaluated
        result = _score(ccas, net, objective, steps)
        evaluated += 1
        if best is None or result.objective > best.objective:
            best = result
        return result.objective

    for _ in range(rollouts):
        steps: List[TraceStep] = []
        for k in range(horizon):
            if rng.random() < greedy_fraction:
                held = horizon - k
                steps.append(max(choices,
                                 key=lambda c: run(steps + [c] * held)))
            else:
                steps.append(rng.choice(choices))
        run(steps)
    assert best is not None
    return SearchReport(best=best, traces_evaluated=evaluated,
                        exhaustive=False, horizon=horizon)
