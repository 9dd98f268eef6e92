"""Per-CCA-pair competition matrices (fairness / starvation sweeps).

The paper proves starvation for a single CCA family against itself;
what operators actually ask is "who starves whom" across deployed
algorithms. This module answers it empirically: every (unordered) pair
of named CCAs shares a bottleneck — the legacy dumbbell by default, or
any :class:`~repro.spec.TopologySpec` (e.g. a parking lot) — and the
resulting per-pair goodputs are distilled into Jain's index and the
paper-style max/min throughput ratio.

Execution rides the same pipeline as rate sweeps
(:mod:`repro.analysis.plan`): :func:`competition_plan` pairs the grid
of serialized :class:`~repro.spec.ScenarioSpec` documents with its
worker and assembler, and the plan runs through one
:class:`~repro.analysis.harness.ResilientSweep`, so ``jobs=N`` fans
pairs out over worker processes bit-identically to a serial run, the
content-addressed store caches finished pairs, and a failed pair lands
as a :class:`RunFailure` (with optional crash bundle) instead of
killing the matrix.

Workers return only finite raw measurements (labels + per-flow rates);
the possibly-infinite derived metrics (a fully starved flow has ratio
``inf``) are recomputed from stored data at assembly time, keeping the
store and checkpoint files strict JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .. import units
from ..core.fairness import jain_index, throughput_ratio
from ..errors import ConfigurationError
from ..spec import (CCASpec, FlowSpec, LinkSpec, ScenarioSpec,
                    TopologySpec, derive_seed)
from ..spec.elements import _check_number
from .harness import RunBudget, RunFailure
from .plan import JobPlan, check_window, run_plan
from .report import format_table


def pair_key(a: str, b: str) -> str:
    """The canonical grid key for an unordered CCA pair."""
    return f"{a}|{b}"


def run_competition_point(params: Dict[str, Any], budget: RunBudget
                          ) -> Dict[str, Any]:
    """Execute one competition pair (spawn-safe worker body).

    ``params`` carries a serialized :class:`ScenarioSpec` plus the run
    window — pure data, so a process pool reproduces the pair
    bit-for-bit. Returns raw finite measurements only.
    """
    spec = ScenarioSpec.from_json(params["scenario"])
    result = spec.run(duration=params["duration"],
                      warmup=params["warmup"],
                      max_events=budget.max_events,
                      wall_clock_budget=budget.wall_clock)
    return {
        "labels": [s.label for s in result.stats],
        "throughputs": [s.throughput for s in result.stats],
        "goodputs": [s.goodput for s in result.stats],
        "losses": [s.losses for s in result.stats],
    }


@dataclass
class CompetitionMatrix:
    """All pairwise competition outcomes for a CCA list.

    ``cells`` maps :func:`pair_key` to the raw worker measurements;
    :meth:`ratio`/:meth:`jain`/:meth:`starved` derive the headline
    metrics on demand (symmetric: ``ratio(a, b) == ratio(b, a)``).
    """

    ccas: List[str]
    rate: float
    rm: float
    duration: float
    cells: Dict[str, Dict[str, Any]]
    #: A pair is flagged starved when its max/min throughput ratio
    #: meets this bound (or one flow moved no bytes at all).
    starve_threshold: float = 50.0
    failures: List[RunFailure] = field(default_factory=list)
    #: Cache accounting ({"hits", "misses", "resumed"}) when run
    #: against a result store; None otherwise.
    cache: Optional[Dict[str, int]] = None

    def cell(self, a: str, b: str) -> Optional[Dict[str, Any]]:
        return self.cells.get(pair_key(a, b)) \
            or self.cells.get(pair_key(b, a))

    def ratio(self, a: str, b: str) -> float:
        """Paper-style max/min throughput ratio for the pair (>= 1)."""
        cell = self.cell(a, b)
        if cell is None:
            return math.nan
        return throughput_ratio(cell["throughputs"])

    def jain(self, a: str, b: str) -> float:
        cell = self.cell(a, b)
        if cell is None:
            return math.nan
        return jain_index(cell["throughputs"])

    def starved(self, a: str, b: str) -> bool:
        ratio = self.ratio(a, b)
        return not math.isnan(ratio) and ratio >= self.starve_threshold

    def starved_pairs(self) -> List[str]:
        return [key for key in sorted(self.cells)
                if self.starved(*key.split("|"))]

    def to_json(self) -> Dict[str, Any]:
        """Strict-JSON document (``inf`` ratios become the string
        ``"inf"``; raw cell data stays numeric)."""
        cells: Dict[str, Any] = {}
        for key, cell in sorted(self.cells.items()):
            ratio = throughput_ratio(cell["throughputs"])
            cells[key] = dict(cell)
            cells[key]["ratio"] = "inf" if math.isinf(ratio) else ratio
            cells[key]["jain"] = jain_index(cell["throughputs"])
            cells[key]["starved"] = self.starved(*key.split("|"))
        return {
            "ccas": list(self.ccas),
            "rate": self.rate,
            "rm": self.rm,
            "duration": self.duration,
            "starve_threshold": self.starve_threshold,
            "cells": cells,
            "failures": [f.to_json() for f in self.failures],
        }

    def describe(self) -> str:
        """ASCII report: ratio matrix, Jain matrix, starved pairs."""
        def fmt(value: float, decimals: int) -> str:
            if math.isnan(value):
                return "-"
            if math.isinf(value):
                return "inf"
            return f"{value:.{decimals}f}"

        lines = [f"competition matrix: {len(self.ccas)} CCAs, "
                 f"{len(self.cells)} pair(s), "
                 f"rate {self.rate * 8 / 1e6:g} Mbit/s, "
                 f"rm {self.rm * 1e3:g} ms, "
                 f"duration {self.duration:g} s"]
        lines.append("")
        lines.append("max/min throughput ratio "
                     f"(starvation at >= {self.starve_threshold:g}):")
        rows = [[a] + [fmt(self.ratio(a, b), 2) for b in self.ccas]
                for a in self.ccas]
        lines.append(format_table(["vs"] + list(self.ccas), rows))
        lines.append("")
        lines.append("Jain fairness index:")
        rows = [[a] + [fmt(self.jain(a, b), 3) for b in self.ccas]
                for a in self.ccas]
        lines.append(format_table(["vs"] + list(self.ccas), rows))
        starved = self.starved_pairs()
        if starved:
            lines.append("")
            lines.append("starved pairs: " + ", ".join(starved))
        if self.failures:
            lines.append("")
            lines.append(f"failed pairs: "
                         + ", ".join(f.key for f in self.failures))
        return "\n".join(lines)


def build_matrix_points(ccas: Sequence[str], rate: float, rm: float,
                        duration: float = 30.0,
                        warmup_fraction: float = 0.5,
                        mss: int = 1500,
                        seed: int = 0,
                        topology: Optional[TopologySpec] = None,
                        ) -> List[Any]:
    """The declarative pair grid one competition matrix executes.

    Each point is ``(pair_key(a, b), params)`` ready for
    :func:`run_competition_point` — the same construction
    :func:`competition_matrix` uses, exposed so the sweep service can
    probe cache keys or run the identical grid itself. Per-pair seeds
    are ``derive_seed(seed, "matrix", a, b)``, independent of execution
    order.
    """
    names = list(ccas)
    if len(names) < 1:
        raise ConfigurationError("competition matrix needs >= 1 CCA")
    specs = [CCASpec(name) for name in names]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate CCA names: {names}")
    check_window(duration, warmup_fraction)
    base_topology = None
    if topology is not None:
        base_topology = topology.with_link_rate(topology.links[0].id,
                                                rate)
    warmup = duration * warmup_fraction
    points = []
    for i, (a, cca_a) in enumerate(zip(names, specs)):
        for b, cca_b in zip(names[i:], specs[i:]):
            flows = (
                FlowSpec(cca=cca_a, rm=rm, mss=mss, label=f"{a}#0"),
                FlowSpec(cca=cca_b, rm=rm, mss=mss, label=f"{b}#1"),
            )
            if base_topology is not None:
                spec = ScenarioSpec(topology=base_topology, flows=flows,
                                    seed=derive_seed(seed, "matrix", a, b))
            else:
                spec = ScenarioSpec(link=LinkSpec(rate=rate), flows=flows,
                                    seed=derive_seed(seed, "matrix", a, b))
            points.append((pair_key(a, b), {
                "scenario": spec.to_json(),
                "duration": duration,
                "warmup": warmup,
            }))
    return points


def competition_plan(ccas: Sequence[str], rate: float, rm: float,
                     duration: float = 30.0,
                     warmup_fraction: float = 0.5,
                     mss: int = 1500,
                     seed: int = 0,
                     starve_threshold: float = 50.0,
                     topology: Optional[TopologySpec] = None) -> JobPlan:
    """Pair the grid, its worker and its matrix assembler (SI units)."""
    _check_number("starve_threshold", starve_threshold, positive=True)
    names = list(ccas)
    points = build_matrix_points(names, rate, rm, duration=duration,
                                 warmup_fraction=warmup_fraction,
                                 mss=mss, seed=seed, topology=topology)

    def assemble(outcome: Any) -> CompetitionMatrix:
        return CompetitionMatrix(
            ccas=names, rate=rate, rm=rm, duration=duration,
            cells={key: outcome.completed[key] for key, _ in points
                   if key in outcome.completed},
            starve_threshold=starve_threshold,
            failures=list(outcome.failures))

    return JobPlan(run_competition_point, points, assemble)


def compile_matrix_plan(ccas: Sequence[str], rate_mbps: float,
                        rm_ms: float, duration: float = 30.0,
                        seed: int = 0, warmup_fraction: float = 0.5,
                        mss: int = 1500, starve_threshold: float = 50.0,
                        topology: Optional[Dict[str, Any]] = None
                        ) -> JobPlan:
    """Compile a matrix parameter document into its plan.

    The keywords are exactly the normalized matrix
    :class:`~repro.service.jobs.JobSpec` params — the one vocabulary the
    CLI flags, a submitted job and this compiler share. ``topology`` is
    a serialized :class:`TopologySpec`.
    """
    return competition_plan(
        ccas, units.mbps(rate_mbps), units.ms(rm_ms), duration=duration,
        warmup_fraction=warmup_fraction, mss=mss, seed=seed,
        starve_threshold=starve_threshold,
        topology=(None if topology is None
                  else TopologySpec.from_json(topology)))


def competition_matrix(ccas: Sequence[str], rate: float, rm: float,
                       duration: float = 30.0,
                       warmup_fraction: float = 0.5,
                       mss: int = 1500,
                       seed: int = 0,
                       starve_threshold: float = 50.0,
                       topology: Optional[TopologySpec] = None,
                       budget: Optional[RunBudget] = None,
                       backend: Optional[object] = None,
                       jobs: Optional[int] = None,
                       store: Optional[object] = None,
                       cache_dir: Optional[str] = None,
                       refresh: bool = False,
                       crash_dir: Optional[str] = None,
                       checkpoint_path: Optional[str] = None,
                       max_failures: Optional[int] = None
                       ) -> CompetitionMatrix:
    """Run every unordered CCA pair (incl. self-pairs) head-to-head.

    Args:
        ccas: CCA registry names (``repro.ccas.registry``); duplicates
            are rejected because pair keys must be unique.
        rate: bottleneck rate in bytes/s. With a ``topology`` this
            overrides the *first* link's rate (the designated
            bottleneck); other links keep their declared rates.
        rm: both flows' propagation RTT, seconds.
        topology: optional multi-bottleneck graph to compete over —
            e.g. :func:`repro.spec.parking_lot_topology`. Both flows
            route over every link in declaration order. Default: the
            legacy single-queue dumbbell.
        seed: root seed; each pair derives its scenario seed as
            ``derive_seed(seed, "matrix", a, b)``, independent of
            execution order and backend.
        starve_threshold: throughput ratio at which a pair is flagged
            starved (50 is a paper-scale "not s-fair for practical s").
        backend/jobs/store/cache_dir/refresh/crash_dir/checkpoint_path/
        max_failures: exactly as in
            :func:`repro.analysis.sweep.sweep_rate_delay`.
    """
    plan = competition_plan(
        ccas, rate, rm, duration=duration,
        warmup_fraction=warmup_fraction, mss=mss, seed=seed,
        starve_threshold=starve_threshold, topology=topology)
    _, matrix = run_plan(
        plan, budget=budget, backend=backend, jobs=jobs, store=store,
        cache_dir=cache_dir, checkpoint_path=checkpoint_path,
        refresh=refresh, crash_dir=crash_dir, max_failures=max_failures)
    return matrix
