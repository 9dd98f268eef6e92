"""Resilient experiment harness: watchdogs and checkpointed sweeps.

Every sweep in this repo used to run unsupervised: one divergent CCA run
(livelocked event loop, runaway queue) aborted an entire grid with no
partial results. This module supplies the missing robustness layer:

* :class:`RunBudget` — per-run event-count and wall-clock budgets,
  enforced by the engine watchdog (:class:`~repro.errors.
  BudgetExceededError`). A point runs once under the stated budget.
* :class:`ResilientSweep` — grid execution with graceful degradation
  (a failed point becomes a structured :class:`RunFailure` instead of
  aborting the sweep). An interrupted sweep resumes from the result
  store, which holds every completed point by content address; a JSON
  checkpoint remembers only the failures. Its ``run`` is the one caller
  of a backend: every grid, report and fuzz campaign goes through it.

The harness is deliberately generic: a "grid point" is any
JSON-serializable key plus a run callable returning a
JSON-serializable result, so packet sweeps, fluid-model sweeps, and
benchmark panels all fit.
"""

from __future__ import annotations

import json
import traceback
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from ..errors import ReproError, SweepAbortedError
from ..store import FileIO, ResultStore, canonical_json

#: The checkpoint file's format: ``{"version": 3, "failures": [...]}``.
_FAILURES_VERSION = 3


@dataclass
class RunBudget:
    """Watchdog limits for one experiment run.

    Args:
        max_events: engine events allowed per run (None = unlimited).
        wall_clock: real seconds allowed per run (None = unlimited).
    """

    max_events: Optional[int] = 20_000_000
    wall_clock: Optional[float] = 60.0

    def __post_init__(self) -> None:
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError(f"max_events must be > 0, got {self.max_events}")
        if self.wall_clock is not None and self.wall_clock <= 0:
            raise ValueError(f"wall_clock must be > 0, got {self.wall_clock}")


@dataclass
class RunFailure:
    """A machine-readable record of one failed grid point.

    ``kind`` classifies how the point died:

    * ``"error"`` — the run raised a recoverable exception (budget
      blowout, simulation error, invariant violation); ``reason``
      holds the exception class name.
    * ``"internal"`` — an unexpected non-recoverable exception (a
      programming error) was wrapped instead of aborting the sweep.
    * ``"worker_lost"`` — the pool worker executing the point died
      (killed, segfaulted, ``os._exit``) and the point was quarantined
      after repeated respawns.
    * ``"timeout"`` — the point exceeded its parent-side wall timeout
      and its worker was terminated.

    ``bundle`` is the path of the crash bundle captured for this
    failure (None when no crash directory was configured or the
    failure happened outside the worker body).
    """

    key: str
    reason: str                  # exception class name, e.g. "BudgetExceededError"
    message: str
    attempts: int                # pool submissions (worker_lost/timeout), else 1
    elapsed: float               # wall-clock seconds spent on the point
    params: Dict[str, Any] = field(default_factory=dict)
    kind: str = "error"
    bundle: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        return {"key": self.key, "reason": self.reason,
                "message": self.message, "attempts": self.attempts,
                "elapsed": self.elapsed, "params": self.params,
                "kind": self.kind, "bundle": self.bundle}

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "RunFailure":
        return RunFailure(key=data["key"], reason=data["reason"],
                          message=data["message"],
                          attempts=data["attempts"],
                          elapsed=data["elapsed"],
                          params=data.get("params", {}),
                          kind=data.get("kind", "error"),
                          bundle=data.get("bundle"))


#: Exceptions a run may raise that are recorded as ``kind="error"``.
#: Anything else (e.g. a TypeError from a bad experiment script) is a
#: programming error, recorded as ``kind="internal"``.
RECOVERABLE = (ReproError, ArithmeticError, MemoryError, RecursionError)


@dataclass
class SweepOutcome:
    """Everything a resilient sweep produced.

    ``completed`` maps point keys to run results;
    ``failures`` holds one :class:`RunFailure` per divergent point.
    With a result store attached, ``hits``/``misses`` count the
    points served from cache versus actually simulated — a fully warm
    or fully resumed sweep shows ``misses == 0``.
    """

    completed: Dict[str, Any]
    failures: List[RunFailure]
    hits: int = 0
    misses: int = 0
    #: Points that simulated fine but could not be persisted to the
    #: store (ENOSPC and friends) — a subset of ``misses``; the sweep
    #: degraded to no-cache mode for them instead of failing.
    degraded: int = 0
    #: True when a ``stop_check`` ended the sweep before every point
    #: ran (the sweep-service's cooperative job cancellation). The
    #: store holds everything that finished.
    stopped: bool = False

    @property
    def failed_keys(self) -> List[str]:
        return [f.key for f in self.failures]


class ResilientSweep:
    """Run a grid of experiments with watchdogs and a failure record.

    Args:
        run_point: ``run_point(params, budget)`` executes one grid point
            and returns a JSON-serializable result. It should forward
            ``budget.max_events``/``budget.wall_clock`` into the
            simulator so the watchdog can fire. With a parallel backend
            it must be a *module-level* function and ``params`` must be
            picklable (see :mod:`repro.analysis.backends`).
        budget: per-point :class:`RunBudget` (default: a generous one).
        checkpoint_path: JSON file of failure records,
            ``{"version": 3, "failures": [...]}``. Completed points
            resume from the result store, never from this file; a sweep
            given a checkpoint and no ``store`` keeps its results in a
            :class:`~repro.store.ResultStore` at
            ``<checkpoint_path>.store``. A recorded failure skips its
            point on the next invocation only when both the point's key
            and its params equal the record's. The file is rewritten
            atomically whenever the set of failure records changes; a
            missing or corrupt file, or one in another format, holds no
            records. None disables it.
        retry_failures_on_resume: when True, points recorded as
            failures in the checkpoint are attempted again.
        backend: an :class:`~repro.analysis.backends.SerialBackend`
            (default) or
            :class:`~repro.analysis.backends.ProcessPoolBackend`
            deciding where points execute. Resume/failure semantics
            are backend-independent.
        crash_dir: directory for crash bundles (see
            :mod:`repro.analysis.diagnostics`). Every failed point
            captures a reproducible bundle there and the
            :class:`RunFailure` record carries its path; None (default)
            disables capture.
        store: a :class:`~repro.store.ResultStore` for content-addressed
            result caching. Every point is looked up before dispatch
            and a miss stored after it runs (successes only), so a
            warm re-run executes zero simulations. A point the store
            holds is served whatever the checkpoint says.
        refresh: skip the lookup and recompute every point, overwriting
            store entries (the CLI's ``--force``).
        max_failures: fail-fast threshold — the number of failed points
            tolerated before the sweep aborts with a
            :class:`~repro.errors.SweepAbortedError` (``0`` aborts on
            the first failure; ``None``, the default, never aborts).
            A sweep that is mostly quarantining points is usually a
            broken setup, not a broken scenario; better to stop with a
            clear error than grind to the end. Failures recorded in the
            checkpoint count toward the threshold, so a re-invocation
            without fixing anything aborts immediately instead of
            burning the grid again.
        stop_check: a zero-argument callable polled after every
            finished point. Returning True ends the sweep cooperatively:
            in-flight backend work is torn down, the outcome carries
            ``stopped=True``, and everything completed so far is in the
            store — the sweep-service uses this for job cancellation.

    Example::

        sweep = ResilientSweep(run_point, checkpoint_path="sweep.json")
        outcome = sweep.run([("2mbps", {"rate": 2.0}),
                             ("50mbps", {"rate": 50.0})])
        outcome.completed   # {"2mbps": {...}, "50mbps": {...}}
        outcome.failures    # [RunFailure(...)] for divergent points
    """

    def __init__(self, run_point: Callable[[Dict[str, Any], RunBudget],
                                           Any],
                 budget: Optional[RunBudget] = None,
                 checkpoint_path: Optional[str] = None,
                 retry_failures_on_resume: bool = False,
                 progress: Optional[Callable[[str, str], None]] = None,
                 backend: Optional[object] = None,
                 store: Optional[object] = None,
                 refresh: bool = False,
                 crash_dir: Optional[str] = None,
                 max_failures: Optional[int] = None,
                 stop_check: Optional[Callable[[], bool]] = None) -> None:
        if max_failures is not None and max_failures < 0:
            raise ValueError(
                f"max_failures must be >= 0, got {max_failures}")
        self.run_point = run_point
        self.budget = budget or RunBudget()
        self.checkpoint_path = checkpoint_path
        self.retry_failures_on_resume = retry_failures_on_resume
        self.max_failures = max_failures
        self.progress = progress
        if backend is None:
            # Imported here: backends.py imports this module's budget
            # and failure types.
            from .backends import SerialBackend
            backend = SerialBackend()
        self.backend = backend
        if store is None and checkpoint_path is not None:
            store = ResultStore(checkpoint_path + ".store")
        self.store = store
        self.refresh = refresh
        self.crash_dir = crash_dir
        self.stop_check = stop_check

    def _load_failures(self) -> Optional[List[RunFailure]]:
        """The checkpoint's failure records; None when there is no
        readable version-3 file."""
        try:
            with open(self.checkpoint_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        if (not isinstance(data, dict)
                or data.get("version") != _FAILURES_VERSION):
            return None
        return [RunFailure.from_json(f) for f in data.get("failures", [])]

    def _write_failures(self, failures: List[RunFailure]) -> None:
        # Atomic replace so a kill mid-write can't corrupt the records.
        FileIO().write_atomic(
            self.checkpoint_path,
            json.dumps({"version": _FAILURES_VERSION,
                        "failures": [f.to_json() for f in failures]},
                       indent=1, sort_keys=True),
            prefix=".checkpoint-")

    def run(self, points: Sequence[Tuple[str, Dict[str, Any]]]
            ) -> SweepOutcome:
        """Execute every grid point, degrading gracefully on failures.

        With a store every point is looked up before dispatch. Of the
        misses, those the checkpoint records as failed (same key, same
        params) are skipped; the rest go to the execution backend
        (serially by default, or a process pool). Every store put and
        failure-record write is atomic and lands before the next point
        starts, so an interrupted sweep resumes from what it finished.
        """
        keys = [key for key, _ in points]
        if len(set(keys)) != len(keys):
            raise ValueError("grid point keys must be unique")
        served: List[Any] = []
        pending = list(points)
        if self.store is not None and not self.refresh:
            from .backends import cached_outcomes  # backends imports us
            served, pending = cached_outcomes(self.run_point, pending,
                                              self.store)
        failures: List[RunFailure] = []
        if self.checkpoint_path is not None:
            saved = self._load_failures()
            if saved and not self.retry_failures_on_resume:
                misses = {(key, canonical_json(params))
                          for key, params in pending}
                failures = [f for f in saved
                            if (f.key, canonical_json(f.params)) in misses]
                skipped = {f.key for f in failures}
                pending = [point for point in pending
                           if point[0] not in skipped]
            if failures != saved:
                self._write_failures(failures)
        self._check_failure_threshold(failures)
        completed: Dict[str, Any] = {}
        counts: Counter = Counter()
        stopped = False
        for outcome in chain(served, self.backend.execute(
                self.run_point, pending, self.budget,
                on_start=lambda key: self._note(key, "run"),
                store=self.store, crash_dir=self.crash_dir)):
            if outcome.failure is not None:
                failures.append(outcome.failure)
                self._note(outcome.key,
                           f"failed: {outcome.failure.reason}")
                if self.checkpoint_path is not None:
                    self._write_failures(failures)
            else:
                completed[outcome.key] = outcome.result
                status = ("cached" if outcome.cached else
                          "degraded" if outcome.degraded else "ok")
                counts[status] += 1
                self._note(outcome.key, status)
            # Raising or leaving the loop closes the backend generator,
            # which tears down any pool workers.
            self._check_failure_threshold(failures)
            if self.stop_check is not None and self.stop_check():
                stopped = True
                break
        return SweepOutcome(
            completed=completed, failures=failures,
            hits=counts["cached"], misses=counts["ok"] + counts["degraded"],
            degraded=counts["degraded"], stopped=stopped)

    def _check_failure_threshold(self,
                                 failures: List[RunFailure]) -> None:
        if self.max_failures is not None \
                and len(failures) > self.max_failures:
            raise SweepAbortedError(
                f"sweep aborted: {len(failures)} point(s) failed, "
                f"exceeding max_failures={self.max_failures} "
                f"(last: {failures[-1].key}: {failures[-1].reason}: "
                f"{failures[-1].message})",
                failures=list(failures))

    def _note(self, key: str, status: str) -> None:
        if self.progress is not None:
            self.progress(key, status)


def _first_line(exc: BaseException) -> str:
    text = str(exc) or type(exc).__name__
    return text.splitlines()[0]


def describe_failures(failures: Sequence[RunFailure]) -> str:
    """A compact human-readable failure table for reports/logs."""
    if not failures:
        return "no failures"
    lines = ["key                  reason                 attempts  detail"]
    for f in failures:
        lines.append(f"{f.key:20.20s} {f.reason:22.22s} "
                     f"{f.attempts:8d}  {f.message:.60s}")
    return "\n".join(lines)


def format_traceback(exc: BaseException) -> str:
    """Full traceback text for verbose failure logging."""
    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))
