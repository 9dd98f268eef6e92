"""Resilient experiment harness: watchdogs and checkpointed sweeps.

Every sweep in this repo used to run unsupervised: one divergent CCA run
(livelocked event loop, runaway queue) aborted an entire grid with no
partial results. This module supplies the missing robustness layer:

* :class:`RunBudget` — per-run event-count and wall-clock budgets,
  enforced by the engine watchdog (:class:`~repro.errors.
  BudgetExceededError`). A point runs once under the stated budget.
* :class:`ResilientSweep` — grid execution with graceful degradation
  (a failed point becomes a structured :class:`RunFailure` instead of
  aborting the sweep) and JSON checkpointing so interrupted sweeps
  resume from the last completed point. Its ``run`` is the one caller
  of a backend: every grid, report and fuzz campaign goes through it.

The harness is deliberately generic: a "grid point" is any
JSON-serializable key plus a run callable returning a
JSON-serializable result, so packet sweeps, fluid-model sweeps, and
benchmark panels all fit.
"""

from __future__ import annotations

import json
import signal
import threading
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from ..errors import ReproError, SweepAbortedError
from ..store.fsio import FileIO


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

    ``completed`` maps point keys to run results (in grid order);
    ``failures`` holds one :class:`RunFailure` per divergent point;
    ``resumed`` counts points skipped because a checkpoint already had
    them. With a result store attached, ``hits``/``misses`` count the
    points served from cache versus actually simulated — a fully warm
    sweep shows ``misses == 0``.
    """

    completed: Dict[str, Any]
    failures: List[RunFailure]
    resumed: int = 0
    hits: int = 0
    misses: int = 0
    #: Points that simulated fine but could not be persisted to the
    #: store (ENOSPC and friends) — a subset of ``misses``; the sweep
    #: degraded to no-cache mode for them instead of failing.
    degraded: int = 0
    #: True when a ``stop_check`` ended the sweep before every point
    #: ran (the sweep-service's cooperative job cancellation). The
    #: checkpoint holds everything that finished.
    stopped: bool = False

    @property
    def failed_keys(self) -> List[str]:
        return [f.key for f in self.failures]


class ResilientSweep:
    """Run a grid of experiments with watchdogs and checkpoints.

    Args:
        run_point: ``run_point(params, budget)`` executes one grid point
            and returns a JSON-serializable result. It should forward
            ``budget.max_events``/``budget.wall_clock`` into the
            simulator so the watchdog can fire. With a parallel backend
            it must be a *module-level* function and ``params`` must be
            picklable (see :mod:`repro.analysis.backends`).
        budget: per-point :class:`RunBudget` (default: a generous one).
        checkpoint_path: JSON file for incremental progress. Written
            atomically after *every* point; on the next invocation,
            completed and failed points found there are skipped, so an
            interrupted sweep resumes where it stopped. None disables
            checkpointing.
        retry_failures_on_resume: when True, points recorded as
            failures in the checkpoint are attempted again on resume
            (completed points are never re-run).
        backend: an :class:`~repro.analysis.backends.SerialBackend`
            (default) or
            :class:`~repro.analysis.backends.ProcessPoolBackend`
            deciding where points execute. Checkpoint/failure semantics
            are backend-independent.
        crash_dir: directory for crash bundles (see
            :mod:`repro.analysis.diagnostics`). Every failed point
            captures a reproducible bundle there and the
            :class:`RunFailure` record carries its path; None (default)
            disables capture.
        store: a :class:`~repro.store.ResultStore` for content-addressed
            result caching. Every point is looked up before dispatch
            and a miss stored after it runs (successes only), so a
            warm re-run executes zero simulations. With a
            store, the checkpoint stops persisting results of its own:
            it records each completed point's *cache key* and becomes a
            view over the store. A checkpoint entry whose store object
            was garbage-collected simply re-runs, and so does a whole
            checkpoint written in the other mode (inline results read
            with a store attached, or cache keys read without one) —
            it is ignored like a corrupt file.
        refresh: skip the lookup and recompute every point, overwriting
            store entries (the CLI's ``--force``).
        max_failures: fail-fast threshold — the number of failed points
            tolerated before the sweep aborts with a
            :class:`~repro.errors.SweepAbortedError` (``0`` aborts on
            the first failure; ``None``, the default, never aborts).
            A sweep that is mostly quarantining points is usually a
            broken setup, not a broken scenario; better to stop with a
            clear error than grind to the end. The checkpoint is
            flushed before the raise, and failures loaded from a
            resumed checkpoint count toward the threshold, so a
            re-invocation without fixing anything aborts immediately
            instead of burning the grid again.
        stop_check: a zero-argument callable polled after every
            finished point (post checkpoint flush). Returning True ends
            the sweep cooperatively: in-flight backend work is torn
            down, the outcome carries ``stopped=True``, and everything
            completed so far survives in the checkpoint — the
            sweep-service uses this for job cancellation.

    Example::

        sweep = ResilientSweep(run_point, checkpoint_path="sweep.json")
        outcome = sweep.run([("2mbps", {"rate": 2.0}),
                             ("50mbps", {"rate": 50.0})])
        outcome.completed   # {"2mbps": {...}, "50mbps": {...}}
        outcome.failures    # [RunFailure(...)] for divergent points
    """

    #: One format per mode: version 1 checkpoints (no store) inline
    #: every result; version 2 (store attached) records cache keys and
    #: resolves them through the store on load.
    CHECKPOINT_VERSION = 1
    CHECKPOINT_STORE_VERSION = 2

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
        self.store = store
        self.refresh = refresh
        self.crash_dir = crash_dir
        self.stop_check = stop_check
        self._interrupted: Optional[int] = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _load_state(self) -> Tuple[Dict[str, Any], Dict[str, str],
                                   List[RunFailure]]:
        """Prior progress as ``(results, cache-key refs, failures)``.

        Without a store the file carries results inline (refs stay
        empty). With one it carries cache keys; each is resolved
        through the store, and an unresolvable key (entry gc'd, store
        moved) silently drops the point so it simply re-runs — the
        checkpoint is a view, the store is the truth. A missing or
        corrupt file, or one written in the other mode, is no progress.
        """
        if self.checkpoint_path is None:
            return {}, {}, []
        try:
            with open(self.checkpoint_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {}, {}, []
        expected = (self.CHECKPOINT_VERSION if self.store is None
                    else self.CHECKPOINT_STORE_VERSION)
        if data.get("version") != expected:
            return {}, {}, []
        completed: Dict[str, Any] = {}
        refs: Dict[str, str] = {}
        if self.store is None:
            completed = dict(data.get("completed", {}))
        else:
            for key, cache_key in data.get("completed", {}).items():
                found, result = self.store.fetch(cache_key)
                if found:
                    completed[key] = result
                    refs[key] = cache_key
        failures = [RunFailure.from_json(f)
                    for f in data.get("failures", [])]
        return completed, refs, failures

    def _write_checkpoint(self, completed: Dict[str, Any],
                          failures: List[RunFailure],
                          refs: Dict[str, str]) -> None:
        if self.checkpoint_path is None:
            return
        if self.store is not None:
            payload = {
                "version": self.CHECKPOINT_STORE_VERSION,
                "store": getattr(self.store, "root", ""),
                # The store holds the results; the checkpoint only
                # remembers which cache keys belong to this grid.
                "completed": {key: refs[key] for key in completed
                              if key in refs},
                "failures": [f.to_json() for f in failures],
            }
        else:
            payload = {
                "version": self.CHECKPOINT_VERSION,
                "completed": completed,
                "failures": [f.to_json() for f in failures],
            }
        # Atomic replace so a kill mid-write can't corrupt progress.
        FileIO().write_atomic(
            self.checkpoint_path,
            json.dumps(payload, indent=1, sort_keys=True),
            prefix=".checkpoint-")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @contextmanager
    def _trap_signals(self):
        """Convert SIGINT/SIGTERM into a cooperative stop.

        The handler only sets a flag; the run loop notices it after the
        in-flight point lands and its checkpoint is flushed, then
        re-raises, so an interrupted sweep always resumes cleanly from
        a consistent checkpoint. Without a checkpoint to flush, outside
        the main thread or where signals are unavailable, it is a no-op.
        """
        self._interrupted = None
        if (self.checkpoint_path is None or threading.current_thread()
                is not threading.main_thread()):
            yield
            return
        previous = {}

        def handler(signum, frame):
            self._interrupted = signum

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover - exotic env
                pass
        try:
            yield
        finally:
            for sig, old in previous.items():
                try:
                    signal.signal(sig, old)
                except (ValueError, OSError):  # pragma: no cover
                    pass

    def run(self, points: Sequence[Tuple[str, Dict[str, Any]]]
            ) -> SweepOutcome:
        """Execute every grid point, degrading gracefully on failures.

        Points already present in the checkpoint are skipped; with a
        store the rest are looked up before dispatch, and only misses
        go to the execution backend (serially by default, or a process
        pool). The checkpoint is rewritten after every finished point,
        hit or run, so an interrupted parallel sweep resumes exactly
        like a serial one. With a checkpoint, SIGINT/SIGTERM are
        trapped for the run: the in-flight point finishes, the
        checkpoint is flushed, and only then does the signal re-raise
        (KeyboardInterrupt / SystemExit).
        """
        keys = [key for key, _ in points]
        if len(set(keys)) != len(keys):
            raise ValueError("grid point keys must be unique")
        completed, refs, failures = self._load_state()
        if self.retry_failures_on_resume:
            failures = []
        failed_keys = {f.key for f in failures}
        pending = [(key, params) for key, params in points
                   if key not in completed and key not in failed_keys]
        resumed = len(points) - len(pending)
        counts: Counter = Counter()
        stopped = False
        self._check_failure_threshold(failures)
        served: List[Any] = []
        if self.store is not None and not self.refresh:
            from .backends import cached_outcomes  # backends imports us
            served, pending = cached_outcomes(self.run_point, pending,
                                              self.store)
        with self._trap_signals():
            for outcome in chain(served, self.backend.execute(
                    self.run_point, pending, self.budget,
                    on_start=lambda key: self._note(key, "run"),
                    store=self.store, crash_dir=self.crash_dir)):
                if outcome.failure is not None:
                    failures.append(outcome.failure)
                    failed_keys.add(outcome.key)
                    self._note(outcome.key,
                               f"failed: {outcome.failure.reason}")
                else:
                    completed[outcome.key] = outcome.result
                    if outcome.cache_key is not None:
                        refs[outcome.key] = outcome.cache_key
                    status = ("cached" if outcome.cached else
                              "degraded" if outcome.degraded else "ok")
                    counts[status] += 1
                    self._note(outcome.key, status)
                self._write_checkpoint(completed, failures, refs)
                # Fail-fast after the flush: everything that finished
                # survives for a resume with a fixed setup. Raising or
                # leaving the loop closes the backend generator, which
                # tears down any pool workers.
                self._check_failure_threshold(failures)
                if self.stop_check is not None and self.stop_check():
                    stopped = True
                if stopped or self._interrupted is not None:
                    break
        if self._interrupted is not None:
            signum, self._interrupted = self._interrupted, None
            if signum == signal.SIGTERM:
                raise SystemExit(128 + signum)
            raise KeyboardInterrupt
        return SweepOutcome(
            completed=completed, failures=failures, resumed=resumed,
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
