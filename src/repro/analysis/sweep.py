"""Link-rate sweeps producing rate-delay curves (Figure 3).

For each link rate, run a single flow of the CCA on an ideal path in the
packet simulator, discard the pre-convergence prefix, and record the
observed RTT range. The result is the shaded region of the paper's
Figure 3 — d_min(C) and d_max(C) as functions of C for a fixed Rm.

Sweeps run on the resilient harness (:mod:`repro.analysis.harness`): a
divergent grid point is recorded as a :class:`RunFailure` on the
returned curve instead of aborting the sweep, and an interrupted sweep
resumes from the result store (``store``/``cache_dir``, or the store a
``checkpoint_path`` keeps beside itself).

Execution is backend-pluggable (:mod:`repro.analysis.backends`). Name
the CCA declaratively — a registry string or
:class:`~repro.spec.CCASpec` — and the sweep ships each grid point to
workers as a serialized :class:`~repro.spec.ScenarioSpec`, so
``jobs=N`` scales with cores while staying bit-identical to a serial
run (per-point seeds derive from the root ``seed`` and the grid key,
never from execution order).

:func:`rate_delay_plan` is the one place the grid builder, the worker
and the curve assembler are paired (see :mod:`repro.analysis.plan`);
:func:`sweep_rate_delay`, ``repro sweep`` and the sweep service all run
the plan it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import units
from ..errors import ConfigurationError
from ..spec import CCASpec, ScenarioSpec, derive_seed, single_flow_scenario
from ..spec.elements import _check_number
from .harness import RunBudget, RunFailure
from .plan import JobPlan, check_window, run_plan

#: What callers may sweep: a registry name or a CCASpec.
CCALike = Union[str, CCASpec]


@dataclass
class RateDelayPoint:
    """One sweep sample: the equilibrium RTT range at a link rate."""

    link_rate: float
    d_min: float
    d_max: float
    throughput: float

    @property
    def delta(self) -> float:
        return self.d_max - self.d_min

    @property
    def utilization(self) -> float:
        return self.throughput / self.link_rate


@dataclass
class RateDelayCurve:
    """A full Figure 3 panel for one CCA."""

    label: str
    rm: float
    points: List[RateDelayPoint]
    #: Grid points that diverged and were skipped (see harness docs).
    failures: List[RunFailure] = field(default_factory=list)
    #: Cache accounting (``{"hits", "misses"}``) when the
    #: sweep ran against a result store; None otherwise. Deliberately
    #: excluded from :meth:`to_json` so cached and uncached runs emit
    #: byte-identical curve documents.
    cache: Optional[Dict[str, int]] = None

    def delta_max(self) -> float:
        return max(p.delta for p in self.points)

    def worst_utilization(self) -> float:
        return min(p.utilization for p in self.points)

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable curve (CLI ``--json``, CI comparisons)."""
        return {
            "label": self.label,
            "rm": self.rm,
            "points": [{"link_rate": p.link_rate, "d_min": p.d_min,
                        "d_max": p.d_max, "throughput": p.throughput}
                       for p in self.points],
            "failures": [f.to_json() for f in self.failures],
        }


def default_run_time(rate: float, rm: float, mss: int) -> float:
    """Per-point run length scaled to the expected convergence time.

    Low rates need longer runs: each cwnd adjustment takes an RTT and
    RTTs are dominated by transmission time at low C.
    """
    packet_time = mss / rate
    run_time = max(30 * rm, 400 * packet_time, 5.0)
    return min(run_time, 120.0)


def run_rate_delay_point(params: Dict[str, Any], budget: RunBudget
                         ) -> Dict[str, float]:
    """Execute one spec-described grid point (spawn-safe worker body).

    ``params`` carries a serialized :class:`ScenarioSpec` plus the run
    window — pure data, so this module-level function is all a process
    pool needs to reproduce the point bit-for-bit.
    """
    spec = ScenarioSpec.from_json(params["scenario"])
    result = spec.run(duration=params["duration"],
                      warmup=params["warmup"],
                      max_events=budget.max_events,
                      wall_clock_budget=budget.wall_clock)
    stats = result.stats[0]
    return {"link_rate": spec.bottleneck_rate, "d_min": stats.min_rtt,
            "d_max": stats.max_rtt, "throughput": stats.throughput}


def _as_cca_spec(cca: Optional[CCALike]) -> CCASpec:
    if isinstance(cca, CCASpec):
        return cca
    if isinstance(cca, str):
        return CCASpec(cca)
    raise ConfigurationError(
        f"sweeps need a declarative CCA (a registry name or a CCASpec) "
        f"or a ScenarioSpec template, got {cca!r}; give a CCA class a "
        f"row with repro.ccas.registry.register() and sweep its name")


def build_rate_delay_points(cca: Optional[CCALike],
                            link_rates_mbps: Sequence[float], rm: float,
                            duration: Optional[float] = None,
                            warmup_fraction: float = 0.5,
                            mss: int = 1500,
                            seed: int = 0,
                            template: Optional[ScenarioSpec] = None,
                            ) -> Tuple[str, List[Tuple[str, Dict[str, Any]]]]:
    """The declarative grid one rate-delay sweep executes.

    Returns ``(label, points)`` where each point is ``(key, params)``
    ready for :func:`run_rate_delay_point` — the same construction
    :func:`sweep_rate_delay` uses, exposed so other callers (the sweep
    service) can probe cache keys or run the identical grid themselves.
    Per-point seeds derive from ``(seed, "sweep", key)``, never from
    execution order, which is what makes any two executions of the same
    grid byte-identical. Every rate must be finite and > 0 and name
    its own ``{:g}mbps`` point.
    """
    check_window(duration, warmup_fraction)
    spec = None if template is not None else _as_cca_spec(cca)
    points: List[Tuple[str, Dict[str, Any]]] = []
    for rate_mbps in map(float, link_rates_mbps):
        _check_number("sweep rate", rate_mbps, positive=True)
        key = f"{rate_mbps:g}mbps"
        if any(key == seen for seen, _ in points):
            raise ConfigurationError(f"sweep rates repeat the point {key}")
        rate = units.mbps(rate_mbps)
        run_time = duration
        if run_time is None:
            run_time = default_run_time(rate, rm, mss)
        if template is not None:
            point_spec = template.with_link_rate(rate)
        else:
            point_spec = single_flow_scenario(spec, rate=rate, rm=rm,
                                              mss=mss)
        point_spec = point_spec.with_seed(derive_seed(seed, "sweep", key))
        points.append((key, {
            "scenario": point_spec.to_json(),
            "duration": run_time,
            "warmup": run_time * warmup_fraction,
        }))
    label = spec.name if spec is not None else "scenario"
    return label, points


def rate_delay_plan(*, cca: Optional[CCALike],
                    link_rates_mbps: Sequence[float], rm: float,
                    label: str, duration: Optional[float],
                    warmup_fraction: float, mss: int, seed: int,
                    template: Optional[ScenarioSpec]) -> JobPlan:
    """Pair the grid, its worker and its curve assembler (SI units)."""
    built_label, points = build_rate_delay_points(
        cca, link_rates_mbps, rm, duration=duration,
        warmup_fraction=warmup_fraction, mss=mss, seed=seed,
        template=template)
    label = label or built_label

    def assemble(outcome: Any) -> RateDelayCurve:
        return RateDelayCurve(
            label=label, rm=rm,
            points=[RateDelayPoint(**outcome.completed[key])
                    for key, _ in points if key in outcome.completed],
            failures=list(outcome.failures))

    return JobPlan(run_rate_delay_point, points, assemble)


def compile_sweep_plan(cca: str, rates_mbps: Sequence[float],
                       rm_ms: float, duration: Optional[float] = None,
                       seed: int = 0, warmup_fraction: float = 0.5,
                       mss: int = 1500,
                       template: Optional[Dict[str, Any]] = None
                       ) -> JobPlan:
    """Compile a sweep parameter document into its plan.

    The one declaration of a sweep's parameters: the normalized
    :class:`~repro.service.jobs.JobSpec` reads its fields and defaults
    from this signature, and ``repro sweep`` / ``repro submit sweep``
    describe the same document. ``duration`` None scales each point's
    run with :func:`default_run_time`. ``template`` is a serialized
    :class:`ScenarioSpec`; the curve is labelled by ``cca`` either way.
    """
    return rate_delay_plan(
        cca=cca, link_rates_mbps=rates_mbps, rm=units.ms(rm_ms),
        label=cca, duration=duration,
        warmup_fraction=warmup_fraction, mss=mss, seed=seed,
        template=(None if template is None
                  else ScenarioSpec.from_json(template)))


def sweep_rate_delay(cca_factory: CCALike,
                     link_rates_mbps: Sequence[float], rm: float,
                     label: str = "",
                     duration: Optional[float] = None,
                     warmup_fraction: float = 0.5,
                     mss: int = 1500,
                     budget: Optional[RunBudget] = None,
                     checkpoint_path: Optional[str] = None,
                     retry_failures: bool = False,
                     backend: Optional[object] = None,
                     jobs: Optional[int] = None,
                     seed: int = 0,
                     template: Optional[ScenarioSpec] = None,
                     store: Optional[object] = None,
                     cache_dir: Optional[str] = None,
                     refresh: bool = False,
                     crash_dir: Optional[str] = None,
                     max_failures: Optional[int] = None
                     ) -> RateDelayCurve:
    """Measure the equilibrium RTT range across link rates.

    Args:
        cca_factory: the CCA to sweep — a registry name (``"vegas"``)
            or a :class:`~repro.spec.CCASpec` (``CCASpec("bbr",
            {"seed": 3})``).
        link_rates_mbps: sweep grid in Mbit/s (the paper uses
            0.1 .. 100).
        rm: propagation RTT (the paper's Figure 3 uses 100 ms).
        duration: per-point run length; default scales with the expected
            convergence time (see :func:`default_run_time`).
        warmup_fraction: fraction of the run discarded as transient.
        budget: per-point watchdog budget; a point that exceeds it
            lands in ``curve.failures`` instead of hanging the sweep.
        checkpoint_path: JSON file of failure records; without a
            ``store`` the sweep keeps its results in
            ``<checkpoint_path>.store``, so a re-invoked sweep serves
            the completed rates from there (see
            :class:`~repro.analysis.harness.ResilientSweep`).
        retry_failures: when resuming from a checkpoint, re-run rates
            previously recorded as failed (e.g. after raising the
            budget) instead of keeping their failure records.
        backend: execution backend; defaults to serial (or to
            ``make_backend(jobs)`` when ``jobs`` is given).
        jobs: shorthand for ``backend=make_backend(jobs)`` — ``N > 1``
            fans grid points out over N worker processes.
        seed: root seed; each grid point derives its scenario seed from
            ``(seed, point key)``, so results are independent of
            execution order and backend.
        template: optional :class:`ScenarioSpec` to sweep instead of a
            fresh single-flow scenario — each grid point runs a copy of
            the template with the bottleneck rate replaced (the curve
            reports flow 0). Overrides ``cca_factory``/``mss``/``rm``'s
            scenario-building role (``rm`` still labels the curve).
        store: a :class:`~repro.store.ResultStore` — grid points are
            looked up by content address before simulating and stored
            after, so a warm rerun executes zero simulations while
            producing a byte-identical curve (``curve.cache`` reports
            the hit/miss split).
        cache_dir: shorthand for ``store=ResultStore(cache_dir)``.
        refresh: recompute every point and overwrite store entries
            (the CLI's ``--force``).
        crash_dir: directory for reproducible crash bundles — every
            failed grid point captures one there (see
            :mod:`repro.analysis.diagnostics` and ``repro replay``).
        max_failures: abort the sweep with a
            :class:`~repro.errors.SweepAbortedError` once more than
            this many grid points have failed (``0`` = abort on the
            first failure; ``None`` = never, the default).
    """
    plan = rate_delay_plan(
        cca=cca_factory, link_rates_mbps=link_rates_mbps, rm=rm,
        label=label, duration=duration, warmup_fraction=warmup_fraction,
        mss=mss, seed=seed, template=template)
    _, curve = run_plan(
        plan, budget=budget, backend=backend, jobs=jobs, store=store,
        cache_dir=cache_dir, checkpoint_path=checkpoint_path,
        retry_failures_on_resume=retry_failures, refresh=refresh,
        crash_dir=crash_dir, max_failures=max_failures)
    return curve
