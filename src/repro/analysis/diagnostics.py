"""Crash bundles: reproducible failure capture for grid points.

When a grid point dies inside :func:`repro.analysis.backends.
execute_point` — a :class:`~repro.errors.SimulationError`, an
:class:`~repro.errors.InvariantViolation` from the sentinel, a budget
blowout, or an unexpected internal error — the bare ``RunFailure``
record says *that* it failed but not enough to debug *why*. A crash
bundle captures everything needed to re-run the exact point:

* the full params dict (which for spec-driven sweeps embeds the
  ScenarioSpec JSON, and therefore the root seed),
* the worker task name (``module:qualname``), so the same module-level
  ``run_point`` can be resolved again,
* the exception type, message, and full traceback,
* engine state off the exception (``sim_time``, which budget fired,
  measured value) and the sentinel's structured ``details`` (violated
  invariant + a tail of the recorder traces),
* the :class:`~repro.analysis.harness.RunBudget` in force.

Bundles are single JSON files written atomically
(:meth:`~repro.store.fsio.FileIO.write_atomic`) under a crash directory
(``crashes/`` by convention; the CLI's ``--crash-dir``). The file
name is content-derived from ``(key, reason)``, so a point that fails
the same way on every run overwrites one bundle instead of
accumulating copies.

``repro replay <bundle>`` (see :mod:`repro.cli`) re-runs the point
through the same :func:`execute_point` path — same params, same seed,
same budget — which makes every captured failure a one-command repro.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import re
import sys
import time
from typing import Any, Dict, Optional

from .. import __version__
from ..errors import ConfigurationError
from ..store.fsio import FileIO
from .harness import RunBudget, _first_line, format_traceback

BUNDLE_VERSION = 1

#: Exception attributes copied into the bundle's ``engine`` section
#: when present (BudgetExceededError and InvariantViolation carry
#: these; other exceptions simply yield an empty section).
_ENGINE_ATTRS = ("kind", "limit", "value", "sim_time")


def _slug(text: str, limit: int = 48) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_")
    return slug[:limit] or "point"


def bundle_filename(key: str, reason: str) -> str:
    """Deterministic bundle name: readable key + short content hash."""
    digest = hashlib.sha256(
        f"{key}\x00{reason}".encode("utf-8")).hexdigest()[:8]
    return f"crash-{_slug(key)}-{digest}.json"


def find_seed(params: Any) -> Optional[int]:
    """Best-effort root-seed extraction from a params payload.

    Spec-driven sweeps embed the scenario as JSON under ``"spec"`` or
    ``"scenario"`` (with its root ``seed``); plain dicts may carry
    ``seed`` at top level. Returns None when no seed is discoverable.
    """
    if not isinstance(params, dict):
        return None
    for key in ("seed", "root_seed"):
        value = params.get(key)
        if isinstance(value, int):
            return value
    for key in ("spec", "scenario"):
        nested = params.get(key)
        if isinstance(nested, dict):
            seed = find_seed(nested)
            if seed is not None:
                return seed
    return None


def write_crash_bundle(crash_dir: str, *, key: str,
                       params: Dict[str, Any], exc: BaseException,
                       task: str = "", elapsed: float = 0.0,
                       budget: Optional[RunBudget] = None,
                       backend: str = "serial") -> Optional[str]:
    """Persist one failure as a reproducible JSON bundle.

    Returns the bundle path, or None when capture itself failed —
    diagnostics must never turn a recorded failure into a second
    crash, so any OSError/TypeError during capture is swallowed.
    """
    try:
        engine = {}
        for attr in _ENGINE_ATTRS:
            value = getattr(exc, attr, None)
            if value is not None:
                engine[attr] = value
        payload = {
            "version": BUNDLE_VERSION,
            "key": key,
            "task": task,
            "params": params,
            "seed": find_seed(params),
            "reason": type(exc).__name__,
            "message": _first_line(exc),
            "traceback": format_traceback(exc),
            "engine": engine,
            "details": getattr(exc, "details", None),
            "budget": None if budget is None else {
                "max_events": budget.max_events,
                "wall_clock": budget.wall_clock,
            },
            "backend": backend,
            "elapsed": elapsed,
            "created_unix": time.time(),
            "python": sys.version.split()[0],
            "repro_version": __version__,
        }
        path = os.path.join(crash_dir, bundle_filename(
            key, type(exc).__name__))
        FileIO().write_atomic(
            path, json.dumps(payload, indent=1, sort_keys=True,
                             default=repr), prefix=".crash-")
        return path
    except Exception:
        return None


def load_bundle(path: str) -> Dict[str, Any]:
    """Read and validate a crash bundle."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "params" not in data:
        raise ConfigurationError(
            f"{path} is not a crash bundle (no params payload)")
    version = data.get("version")
    if version != BUNDLE_VERSION:
        raise ConfigurationError(
            f"unsupported crash bundle version {version!r} in {path} "
            f"(this build reads version {BUNDLE_VERSION})")
    return data


def resolve_task(task: str):
    """Import the ``module:qualname`` worker recorded in a bundle."""
    if not task or ":" not in task:
        raise ConfigurationError(
            f"bundle has no resolvable task name: {task!r}")
    module_name, qualname = task.split(":", 1)
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(
            f"cannot import bundle task module {module_name!r}: {exc}")
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise ConfigurationError(
                f"bundle task {task!r} no longer exists "
                f"(renamed or removed worker function?)")
    return obj


def budget_from_bundle(data: Dict[str, Any],
                       scale: float = 1.0) -> RunBudget:
    """Reconstruct the bundle's RunBudget, optionally scaled up."""
    recorded = data.get("budget") or {}
    max_events = recorded.get("max_events")
    wall_clock = recorded.get("wall_clock")
    return RunBudget(
        max_events=None if max_events is None
        else max(1, int(max_events * scale)),
        wall_clock=None if wall_clock is None
        else wall_clock * scale)


def replay_bundle(path: str, invariants: Optional[str] = None,
                  budget_scale: float = 1.0):
    """Re-run the exact point captured in a bundle.

    Returns the :class:`~repro.analysis.backends.PointOutcome` of the
    re-run: ``outcome.failure`` repeats the original failure when the
    point is deterministic; a ``None`` failure means the point now
    passes (fixed code, or a strict-mode-only capture replayed in warn
    mode). ``invariants`` forces the sentinel mode for the replay
    (``strict`` turns warn-mode captures into hard raises);
    ``budget_scale`` multiplies the recorded budgets to distinguish a
    genuinely divergent point from one that merely ran out of headroom.
    """
    from ..sim.invariants import override_mode
    from .backends import execute_point
    data = load_bundle(path)
    run_point = resolve_task(data.get("task", ""))
    budget = budget_from_bundle(data, scale=budget_scale)
    key = data.get("key", "replay")
    params = data["params"]
    if invariants is not None:
        with override_mode(invariants):
            return execute_point(run_point, key, params, budget,
                                 backend_name="replay")
    return execute_point(run_point, key, params, budget,
                         backend_name="replay")
