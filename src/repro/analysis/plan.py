"""The one grid pipeline: compile to a plan, run the plan, render.

``repro sweep`` / ``repro matrix``, the library and every
sweep-service job take the same steps: a compiler
(:func:`~repro.analysis.sweep.compile_sweep_plan`,
:func:`~repro.analysis.competition.compile_matrix_plan`) pairs the grid
points with their worker and assembler in a :class:`JobPlan`,
:func:`run_plan` executes it through one
:class:`~repro.analysis.harness.ResilientSweep`, and
:func:`render_result` serializes the result's ``to_json()``. With one
of each, a submitted job's cache keys and result bytes equal a local
run's by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..spec.elements import _check_number
from ..store import ResultStore
from .backends import Point, RunPoint, make_backend
from .harness import ResilientSweep, RunBudget, SweepOutcome


@dataclass
class JobPlan:
    """A compiled grid: what to run and how to fold it into a result."""

    run_point: RunPoint
    points: List[Point]
    #: ``assemble(outcome)`` folds a :class:`SweepOutcome` into the
    #: result object (a curve or a matrix; both expose ``to_json()``,
    #: ``failures`` and a ``cache`` attribute for :func:`run_plan` to
    #: fill). Grid order comes from ``points``, never completion order.
    assemble: Callable[[SweepOutcome], Any]


def check_window(duration: Optional[float],
                 warmup_fraction: float) -> None:
    """The run window every grid point shares: ``duration`` None (a
    per-point default) or finite and > 0, ``warmup_fraction`` in
    ``[0, 1)``."""
    _check_number("duration", duration, positive=True, allow_none=True)
    if not 0 <= warmup_fraction < 1:
        raise ConfigurationError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}")


def run_plan(plan: JobPlan, budget: Optional[RunBudget] = None,
             backend: Optional[object] = None,
             jobs: Optional[int] = None,
             store: Optional[ResultStore] = None,
             cache_dir: Optional[str] = None,
             **sweep_options: Any) -> Tuple[SweepOutcome, Any]:
    """Execute a plan; returns ``(outcome, assembled result)``.

    ``jobs`` is shorthand for ``backend=make_backend(jobs)`` and
    ``cache_dir`` for ``store=ResultStore(cache_dir)``; the result's
    ``cache`` carries hit/miss accounting exactly when a store was
    attached. ``sweep_options`` ride through to :class:`ResilientSweep`
    (``checkpoint_path``, ``retry_failures_on_resume``, ``refresh``,
    ``crash_dir``, ``max_failures``, ``progress``, ``stop_check``).
    """
    if backend is None:
        backend = make_backend(jobs)
    elif jobs is not None:
        raise ConfigurationError("pass backend or jobs, not both")
    if cache_dir is not None:
        if store is not None:
            raise ConfigurationError("pass store or cache_dir, not both")
        store = ResultStore(cache_dir)
    outcome = ResilientSweep(plan.run_point, budget=budget,
                             backend=backend, store=store,
                             **sweep_options).run(plan.points)
    result = plan.assemble(outcome)
    if store is not None:
        result.cache = {"hits": outcome.hits, "misses": outcome.misses}
    return outcome, result


def render_result(doc: Dict[str, Any]) -> str:
    """The canonical result serialization.

    The CLI's ``--json`` files and the daemon's ``result.json`` are both
    written through this function — the submit-wait-fetch contract is
    "same bytes as running it locally".
    """
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
