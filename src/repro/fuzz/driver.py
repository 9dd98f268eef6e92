"""The fuzz campaign driver: generate, execute, dedup, shrink, file.

One :func:`run_fuzz` call is one campaign:

1. Generate ``iterations`` specs from the root seed
   (:mod:`repro.fuzz.generate`).
2. Execute each through the oracle battery worker
   (:func:`repro.fuzz.oracles.fuzz_battery_point`) as a plan on the
   runner and self-healing pool sweeps use, so a worker-killing bug is
   itself captured as a finding instead of aborting the campaign.
3. Optionally cross-check a sample of iterations on the *other*
   backend (serial vs pool) and flag any divergence in the battery's
   output — the differential oracle.
4. Deduplicate findings by signature, split them into *known* (already
   in the corpus) and *fresh*.
5. Shrink each fresh finding (:mod:`repro.fuzz.shrink`), write it to
   the corpus as an ``"expected"`` regression entry, and capture a
   crash bundle for it so ``repro replay`` reproduces it standalone.

Determinism: with a fixed seed and iteration count (and no
``time_budget``, which necessarily depends on the wall clock) the
campaign's findings, minimized specs, and corpus files are identical
on every run and every backend — outcomes are re-sorted into
iteration order before dedup so pool scheduling cannot leak in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..analysis.backends import (ProcessPoolBackend, SerialBackend,
                                 execute_point, make_backend)
from ..analysis.harness import RunBudget
from ..analysis.plan import JobPlan, run_plan
from .corpus import CorpusEntry, known_signatures, write_entry
from .generate import FuzzConfig, generate_spec
from .oracles import Finding, battery_params, fuzz_battery_point
from .shrink import reproduces, shrink_spec

#: Default per-iteration engine budget. Wall-clock is None on purpose:
#: an in-engine wall watchdog fires nondeterministically under load,
#: and fuzz output must be a pure function of (seed, iterations). Hang
#: protection comes from the pool's parent-side stall watchdog.
DEFAULT_BUDGET = RunBudget(max_events=2_000_000, wall_clock=None)

#: Parent-side stall watchdog per point when running with --jobs.
DEFAULT_POINT_TIMEOUT = 120.0

#: How many iterations the differential serial-vs-pool check re-runs.
DIFFERENTIAL_SAMPLE = 3


@dataclass
class FuzzFinding:
    """One deduplicated finding and everything derived from it."""

    index: int                     # fuzz iteration that first hit it
    key: str
    finding: Finding
    scenario: Dict[str, Any]       # the full originating spec (JSON)
    known: bool = False            # already in the corpus
    reproducible: bool = True      # reproduces in-process
    shrunk: Optional[Dict[str, Any]] = None
    shrink_runs: int = 0
    corpus_path: Optional[str] = None
    bundle: Optional[str] = None

    @property
    def signature(self) -> str:
        return self.finding.signature

    def to_json(self) -> Dict[str, Any]:
        return {"index": self.index, "key": self.key,
                "finding": self.finding.to_json(),
                "scenario": self.scenario, "known": self.known,
                "reproducible": self.reproducible,
                "shrunk": self.shrunk,
                "shrink_runs": self.shrink_runs,
                "corpus_path": self.corpus_path,
                "bundle": self.bundle}


@dataclass
class FuzzReport:
    """Everything one campaign produced."""

    seed: int
    iterations: int                # requested
    executed: int                  # actually run (time budget may cut)
    findings: List[FuzzFinding] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def fresh(self) -> List[FuzzFinding]:
        return [f for f in self.findings if not f.known]

    @property
    def known(self) -> List[FuzzFinding]:
        return [f for f in self.findings if f.known]

    def to_json(self) -> Dict[str, Any]:
        return {"seed": self.seed, "iterations": self.iterations,
                "executed": self.executed, "elapsed": self.elapsed,
                "findings": [f.to_json() for f in self.findings]}

    def describe(self) -> str:
        lines = [f"fuzz: {self.executed}/{self.iterations} iteration(s) "
                 f"(seed {self.seed}) in {self.elapsed:.1f}s, "
                 f"{len(self.findings)} distinct finding(s) "
                 f"({len(self.fresh)} fresh, {len(self.known)} known)"]
        for item in self.findings:
            status = "known" if item.known else "FRESH"
            flows = len((item.shrunk or item.scenario).get("flows", []))
            lines.append(f"  [{status}] {item.signature}  "
                         f"(iteration {item.index}, minimized to "
                         f"{flows} flow(s))")
            if item.finding.message:
                lines.append(f"      {item.finding.message[:100]}")
            if item.corpus_path:
                lines.append(f"      corpus: {item.corpus_path}")
            if item.bundle:
                lines.append(f"      bundle: {item.bundle}")
            if not item.reproducible:
                lines.append("      (did not reproduce in-process; "
                             "not shrunk, not filed)")
        return "\n".join(lines)


def _alternate_backend(primary: Any) -> Any:
    if isinstance(primary, SerialBackend):
        return ProcessPoolBackend(jobs=2,
                                  point_timeout=DEFAULT_POINT_TIMEOUT)
    return SerialBackend()


def _differential_findings(primary_backend: Any,
                           results: Dict[str, Dict[str, Any]],
                           points_by_key: Dict[str, Any],
                           budget: RunBudget,
                           sample_keys: List[str]) -> List[Finding]:
    """Re-run a sample on the other backend; flag any output skew.

    The battery result (findings + golden digests) must be identical
    wherever it executes — that is the bit-identical-parallelism
    contract the spec layer's seed derivation exists to provide.
    """
    findings: List[Finding] = []
    backend = _alternate_backend(primary_backend)
    sample = [(key, points_by_key[key]) for key in sample_keys]
    outcome, _ = run_plan(JobPlan(fuzz_battery_point, sample,
                                  lambda outcome: outcome),
                          budget=budget, backend=backend)
    failed = {failure.key: failure for failure in outcome.failures}
    for key in sample_keys:
        if key in failed:
            findings.append(Finding(
                "differential", "backend_divergence", "backend",
                f"{key} failed on {type(backend).__name__} "
                f"but not on {type(primary_backend).__name__}: "
                f"{failed[key].reason}: {failed[key].message}"))
        elif outcome.completed[key] != results[key]:
            findings.append(Finding(
                "differential", "backend_divergence", "backend",
                f"{key}: battery output differs between "
                f"{type(primary_backend).__name__} and "
                f"{type(backend).__name__}"))
    return findings


def run_fuzz(iterations: int = 50, seed: int = 1,
             time_budget: Optional[float] = None,
             corpus_dir: Optional[str] = None,
             jobs: Optional[int] = None,
             budget: Optional[RunBudget] = None,
             config: Optional[FuzzConfig] = None,
             differential: bool = True,
             crash_dir: Optional[str] = None,
             progress: Optional[Callable[[str, str], None]] = None
             ) -> FuzzReport:
    """Run one fuzz campaign; see the module docstring for the phases.

    Args:
        iterations: specs to generate and test.
        seed: campaign root seed; iteration ``i`` is a pure function
            of ``(seed, i)``.
        time_budget: optional wall-clock cap in seconds — the campaign
            stops accepting new outcomes once exceeded (this
            sacrifices run-to-run determinism by design; leave unset
            where determinism matters).
        corpus_dir: corpus to match findings against and file fresh
            minimized findings into (``"expected"`` status).
        jobs: worker processes (None/1 = serial, N>1 = the
            self-healing pool).
        budget: per-iteration :class:`RunBudget`
            (default :data:`DEFAULT_BUDGET`).
        config: generator bounds (:class:`FuzzConfig`).
        differential: cross-check a sample on the alternate backend.
        crash_dir: capture a crash bundle per fresh reproducible
            finding, for ``repro replay``.
        progress: ``progress(key, status)`` callback, harness-style.
    """
    start = time.monotonic()
    deadline = None if time_budget is None else start + time_budget
    budget = budget or DEFAULT_BUDGET
    backend = make_backend(jobs, point_timeout=DEFAULT_POINT_TIMEOUT)

    specs = {f"fuzz-{i:04d}": (i, generate_spec(seed, i, config))
             for i in range(iterations)}
    points = [(key, battery_params(spec))
              for key, (_i, spec) in specs.items()]
    points_by_key = dict(points)

    def note(key: str, status: str) -> None:
        if progress is not None:
            progress(key, status)

    # Phase 2: execute the battery everywhere; the time budget is the
    # runner's stop_check.
    outcome, _ = run_plan(
        JobPlan(fuzz_battery_point, points, lambda outcome: outcome),
        budget=budget, backend=backend, progress=progress,
        stop_check=lambda: (deadline is not None
                            and time.monotonic() > deadline))
    if outcome.stopped:
        note("campaign", "time budget exhausted")
    results: Dict[str, Dict[str, Any]] = outcome.completed
    raw: Dict[str, List[Finding]] = {
        key: [Finding.from_json(f) for f in result["findings"]]
        for key, result in results.items()}
    for failure in outcome.failures:
        # The iteration died outside the battery's own classifiers
        # (worker killed, parent-side timeout, internal error): the
        # harness itself is the oracle that caught it.
        raw[failure.key] = [Finding("harness", failure.kind,
                                    failure.reason, failure.message)]
    executed = len(raw)

    # Phase 3: differential serial-vs-pool identity on a small sample —
    # iterations with findings first (divergence correlates with the
    # interesting paths), topped up with clean ones.
    if differential and results:
        with_findings = sorted(k for k in results if raw.get(k))
        clean = sorted(k for k in results if not raw.get(k))
        sample = (with_findings[:DIFFERENTIAL_SAMPLE]
                  + clean[:max(0, DIFFERENTIAL_SAMPLE
                               - len(with_findings))])
        for finding in _differential_findings(
                backend, results, points_by_key, budget, sample):
            raw.setdefault(sample[0], []).append(finding)

    # Phase 4: dedup by signature, in iteration order for determinism.
    known = known_signatures(corpus_dir)
    deduped: Dict[str, FuzzFinding] = {}
    for key in sorted(raw):
        index, spec = specs[key]
        for finding in raw[key]:
            if finding.signature in deduped:
                continue
            deduped[finding.signature] = FuzzFinding(
                index=index, key=key, finding=finding,
                scenario=spec.to_json(),
                known=finding.signature in known)

    # Phase 5: shrink fresh findings, file them, capture bundles.
    for item in deduped.values():
        if item.known:
            continue
        if item.finding.oracle in ("harness", "differential"):
            # Not a property of one spec run in-process; report it,
            # but there is nothing a corpus replay could assert.
            item.reproducible = False
            continue
        note(item.key, f"shrinking {item.signature}")
        spec = specs[item.key][1]
        try:
            item.reproducible = reproduces(
                spec, item.signature, max_events=budget.max_events)
        except Exception:
            item.reproducible = False
        if not item.reproducible:
            continue
        shrunk = shrink_spec(spec, item.signature,
                             max_events=budget.max_events)
        item.shrink_runs = shrunk.runs
        item.shrunk = shrunk.spec.to_json()
        if corpus_dir:
            entry = CorpusEntry(
                signature=item.signature,
                oracle=item.finding.oracle, kind=item.finding.kind,
                component=item.finding.component,
                message=item.finding.message,
                scenario=item.shrunk, status="expected",
                origin={"root_seed": seed, "iteration": item.index})
            item.corpus_path = write_entry(corpus_dir, entry)
        if crash_dir:
            params = dict(battery_params(shrunk.spec))
            params["raise_on_finding"] = item.signature
            bundle_outcome = execute_point(
                fuzz_battery_point, item.key, params, budget,
                backend_name="fuzz", crash_dir=crash_dir)
            if bundle_outcome.failure is not None:
                item.bundle = bundle_outcome.failure.bundle

    return FuzzReport(
        seed=seed, iterations=iterations, executed=executed,
        findings=[deduped[s] for s in sorted(deduped)],
        elapsed=time.monotonic() - start)
