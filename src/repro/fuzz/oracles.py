"""The fuzz oracle battery: what counts as a finding, and how we look.

A generated spec is valid by construction, so the battery's job is to
decide whether the *code* holds up its end of the contract. Four
oracles run per spec:

* **roundtrip** — ``ScenarioSpec.loads(spec.dumps()) == spec``. The
  whole parallel-execution story rests on specs surviving JSON.
* **cache_key** — the content address of the spec's battery point is
  identical before and after a params JSON round trip; an unstable key
  silently orphans every warm cache.
* **invariant** — the spec runs under the ``strict`` sentinel
  (:mod:`repro.sim.invariants`); a conservation/causality/sanity
  violation, a budget blowout, or an unexpected exception is a finding.
* **determinism** — the run repeats with identical golden trace and
  summary digests (:func:`repro.sim.digests.run_digests`); divergence
  means hidden global state.

Findings are deduplicated by :attr:`Finding.signature`:
``oracle:kind:component`` with flow/queue indices stripped from the
component (``sender[3].cwnd`` → ``sender[].cwnd``), so the shrinker can
drop flows without changing a finding's identity and one root cause
maps to one corpus entry.

:func:`fuzz_battery_point` is the module-level ``run_point`` worker —
picklable, so the driver can fan iterations out over the self-healing
:class:`~repro.analysis.backends.ProcessPoolBackend` and every finding
still flows through the shared ``execute_point`` crash-bundle
path. Passing ``params["raise_on_finding"]`` turns a matching finding
into a raised :class:`OracleFailure`, which is how fuzz findings become
crash bundles that ``repro replay`` reproduces exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import (BudgetExceededError, ConfigurationError,
                      InvariantViolation, ReproError, SimulationError)
from ..sim.digests import run_digests
from ..spec import ScenarioSpec
from ..store.keys import point_cache_key

#: Fallback run window for specs that carry none (generated specs
#: always embed duration/warmup, but the battery also accepts
#: hand-written corpus entries).
DEFAULT_DURATION = 2.0

_INDEX_RE = re.compile(r"\[\d+\]")


def normalize_component(component: str) -> str:
    """Strip instance indices so signatures survive shrinking."""
    return _INDEX_RE.sub("[]", component)


class OracleFailure(SimulationError):
    """A fuzz finding re-raised as an exception (for crash bundles).

    Carries the finding's classification on the attributes the crash
    bundle writer copies into its ``engine`` section
    (:data:`repro.analysis.diagnostics._ENGINE_ATTRS`), so a bundle
    produced from a fuzz finding records the violated invariant and
    simulation time exactly like a sentinel raise would.
    """

    def __init__(self, message: str, kind: str = "finding",
                 sim_time: Optional[float] = None,
                 details: Optional[dict] = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.sim_time = sim_time
        self.details = details if details is not None else {}


@dataclass
class Finding:
    """One oracle hit: what failed, where, and how it is identified."""

    oracle: str                 # roundtrip | cache_key | invariant | ...
    kind: str                   # violation family / exception class
    component: str              # site, e.g. "sender[0].cwnd"
    message: str
    sim_time: Optional[float] = None
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def signature(self) -> str:
        """Dedup identity: ``oracle:kind:component`` (indices stripped)."""
        return (f"{self.oracle}:{self.kind}:"
                f"{normalize_component(self.component)}")

    def to_json(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "kind": self.kind,
                "component": self.component, "message": self.message,
                "sim_time": self.sim_time, "signature": self.signature}

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "Finding":
        return Finding(oracle=data["oracle"], kind=data["kind"],
                       component=data["component"],
                       message=data.get("message", ""),
                       sim_time=data.get("sim_time"))


@dataclass
class BatteryResult:
    """Everything one battery pass produced."""

    findings: List[Finding]
    #: Golden digests of the (first) successful run, for the
    #: differential serial-vs-pool identity check; None when the run
    #: itself failed.
    digests: Optional[Dict[str, str]] = None

    @property
    def signatures(self) -> List[str]:
        return [f.signature for f in self.findings]

    def to_json(self) -> Dict[str, Any]:
        return {"findings": [f.to_json() for f in self.findings],
                "digests": self.digests}


def battery_params(spec: ScenarioSpec,
                   determinism: bool = True) -> Dict[str, Any]:
    """The params dict that sends ``spec`` through the battery worker."""
    return {"scenario": spec.to_json(), "determinism": determinism}


def _run_window(spec: ScenarioSpec) -> tuple:
    duration = spec.duration if spec.duration is not None \
        else DEFAULT_DURATION
    warmup = spec.warmup if spec.warmup is not None else 0.0
    return duration, warmup


def _check_roundtrip(spec: ScenarioSpec,
                     findings: List[Finding]) -> None:
    try:
        if ScenarioSpec.loads(spec.dumps()) != spec:
            findings.append(Finding(
                "roundtrip", "mismatch", "spec",
                "loads(dumps(spec)) != spec"))
    except ReproError as exc:
        findings.append(Finding(
            "roundtrip", type(exc).__name__, "spec",
            f"spec does not survive JSON: {exc}"))


def _check_cache_key(spec: ScenarioSpec,
                     findings: List[Finding]) -> None:
    params = battery_params(spec)
    try:
        before = point_cache_key(fuzz_battery_point, params)
        after = point_cache_key(fuzz_battery_point,
                                json.loads(json.dumps(params)))
    except ReproError as exc:
        findings.append(Finding(
            "cache_key", type(exc).__name__, "store",
            f"cache key derivation failed: {exc}"))
        return
    if before != after:
        findings.append(Finding(
            "cache_key", "unstable", "store",
            f"content address changed across a params JSON round "
            f"trip ({before[:12]} -> {after[:12]})"))


def _run_once(spec: ScenarioSpec, max_events: Optional[int],
              findings: List[Finding]) -> Optional[Dict[str, str]]:
    """One strict-sentinel run; classify any failure, digest success."""
    duration, warmup = _run_window(spec)
    try:
        result = spec.run(duration=duration, warmup=warmup,
                          max_events=max_events, invariants="strict")
    except InvariantViolation as exc:
        findings.append(Finding(
            "invariant", exc.kind,
            str(exc.details.get("site", "engine")),
            str(exc), sim_time=exc.sim_time,
            details=dict(exc.details)))
        return None
    except BudgetExceededError as exc:
        findings.append(Finding(
            "budget", exc.kind, "engine", str(exc),
            sim_time=exc.sim_time))
        return None
    except ConfigurationError as exc:
        # The generator only emits valid specs, so a build-time
        # rejection of one is itself a bug (generator/validator skew).
        findings.append(Finding(
            "build", type(exc).__name__, "spec", str(exc)))
        return None
    except SimulationError as exc:
        findings.append(Finding(
            "simulation", type(exc).__name__, "engine", str(exc),
            sim_time=getattr(exc, "sim_time", None)))
        return None
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        findings.append(Finding(
            "crash", type(exc).__name__, "engine", str(exc)))
        return None
    return run_digests(result)


def run_battery(spec: ScenarioSpec, max_events: Optional[int] = None,
                determinism: bool = True) -> BatteryResult:
    """Run the full oracle battery against one spec.

    ``max_events`` bounds each simulation (the worker passes its
    :class:`~repro.analysis.harness.RunBudget` limit through); the
    wall-clock budget is deliberately *not* forwarded into the engine —
    a wall watchdog fires nondeterministically under load, and battery
    output must be a pure function of the spec. Hang protection is the
    pool's parent-side stall watchdog instead.
    """
    findings: List[Finding] = []
    _check_roundtrip(spec, findings)
    _check_cache_key(spec, findings)
    digests = _run_once(spec, max_events, findings)
    if digests is not None and determinism:
        repeat: List[Finding] = []
        second = _run_once(spec, max_events, repeat)
        if repeat:
            # The identical spec failed on the second run only: that
            # is nondeterminism, whatever the second failure called
            # itself.
            first = repeat[0]
            findings.append(Finding(
                "determinism", "unstable_failure", first.component,
                f"second identical run failed where the first "
                f"passed: {first.message}", sim_time=first.sim_time))
        elif second != digests:
            for part in ("traces", "summary"):
                if second is not None \
                        and second.get(part) != digests.get(part):
                    findings.append(Finding(
                        "determinism", f"{part}_divergence", "engine",
                        f"two runs of one spec produced different "
                        f"{part} digests"))
    return BatteryResult(findings=findings, digests=digests)


def fuzz_battery_point(params: Dict[str, Any], budget: Any
                       ) -> Dict[str, Any]:
    """Module-level worker: one fuzz iteration through the battery.

    Returns the battery result as a plain JSON-able dict (findings +
    digests). With ``params["raise_on_finding"]`` set to ``"*"`` or a
    signature, a matching finding raises :class:`OracleFailure`
    instead — the path by which ``execute_point`` captures a crash
    bundle for it and ``repro replay`` reproduces it later.
    """
    spec = ScenarioSpec.from_json(params["scenario"])
    result = run_battery(
        spec, max_events=getattr(budget, "max_events", None),
        determinism=params.get("determinism", True))
    raise_on = params.get("raise_on_finding")
    if raise_on:
        for finding in result.findings:
            if raise_on == "*" or finding.signature == raise_on:
                raise OracleFailure(
                    f"fuzz finding {finding.signature}: "
                    f"{finding.message}",
                    kind=finding.kind, sim_time=finding.sim_time,
                    details={"signature": finding.signature,
                             "oracle": finding.oracle,
                             "component": finding.component,
                             **finding.details})
    return result.to_json()
