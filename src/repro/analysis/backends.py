"""Pluggable execution backends: how a grid of experiments runs.

The resilient harness (:mod:`repro.analysis.harness`) decides *what* to
run and how failures are recorded; a backend decides *where*
the points execute:

* :class:`SerialBackend` — in-process, in grid order (the default, and
  the reference for bit-identical results).
* :class:`ProcessPoolBackend` — a spawn-based process pool. Workers
  receive only picklable data (a module-level ``run_point`` function
  reference, JSON-able params, a :class:`RunBudget`) and return
  picklable results (plain dicts / :class:`FlowStats` /
  :class:`RunFailure`), never live simulator objects. Combined with
  root-seed derivation (:mod:`repro.spec.seeds`) this makes parallel
  sweeps bit-identical to serial ones.

Both backends funnel each point through :func:`execute_point`, which
runs it once under the caller's budget and owns the failure-wrapping
semantics, so a divergent point degrades to a :class:`RunFailure`
identically on every backend.
Unexpected non-recoverable exceptions (programming errors) are wrapped
as ``RunFailure(kind="internal")`` — with a crash bundle when a crash
directory is configured — instead of aborting the sweep; only
``KeyboardInterrupt``/``SystemExit`` stay fatal.

:class:`ProcessPoolBackend` additionally self-heals around worker
death: a killed worker (``os._exit``, segfault, OOM kill) breaks the
stdlib pool, so the backend respawns it, resubmits the unfinished
points, and quarantines any point implicated in ``max_point_attempts``
consecutive pool breaks as ``RunFailure(kind="worker_lost")``. A
parent-side stall watchdog (``point_timeout``) terminates hung workers
the in-worker budgets cannot reach, recording ``kind="timeout"``; and
if a replacement pool cannot even be built, the remaining points
degrade to in-process serial execution rather than being dropped.

The runner reads the store once, before dispatch
(:func:`cached_outcomes`), so a backend only sees misses; inside the
worker body ``execute_point`` puts each *successful* result, so pool
workers share the cache like serial runs and a failure never poisons it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Sequence, Tuple)

from ..errors import ConfigurationError
from ..store import ResultStore, point_cache_key, summarize_params, task_name
from .harness import RECOVERABLE, RunBudget, RunFailure, _first_line

if TYPE_CHECKING:  # the pool machinery is imported where a pool starts
    from concurrent.futures import ProcessPoolExecutor

#: ``run_point(params, budget) -> result`` — the unit of grid work.
RunPoint = Callable[[Dict[str, Any], RunBudget], Any]

#: ``(key, params)`` — one grid point.
Point = Tuple[str, Dict[str, Any]]


@dataclass
class PointOutcome:
    """What one grid point produced: a result or a structured failure."""

    key: str
    params: Dict[str, Any]
    result: Any = None
    failure: Optional[RunFailure] = None
    #: True when the result was served from a ResultStore without
    #: simulating.
    cached: bool = False
    #: True when the point simulated fine but the store could not
    #: persist it (ENOSPC et al.) — the result is correct and used,
    #: just not cached; a later run recomputes it.
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None


def execute_point(run_point: RunPoint, key: str, params: Dict[str, Any],
                  budget: RunBudget,
                  store: Optional[ResultStore] = None,
                  backend_name: str = "serial",
                  crash_dir: Optional[str] = None) -> PointOutcome:
    """Run one grid point, once; wrap its failure as a record.

    This is the single execution path shared by every backend (it is a
    module-level function precisely so process pools can pickle it).
    ``run_point`` receives the caller's :class:`RunBudget` and should
    pass its limits into the run so the engine watchdog can fire. A
    run is a pure function of its params, so a failure is recorded,
    not re-run: ``repro replay BUNDLE --budget-scale X`` or a larger
    ``--max-events`` gives a point more headroom.

    With a ``store``, a *successful* result is put under the point's
    content address (no lookup: the runner did that before dispatch);
    failures are recorded as ``fail`` catalog events instead.

    Failure semantics: recoverable exceptions (budget blowouts,
    simulation errors, invariant violations) become
    ``RunFailure(kind="error")``; anything else except
    ``KeyboardInterrupt``/``SystemExit`` becomes
    ``RunFailure(kind="internal")`` so one buggy point cannot abort a
    sweep. With a ``crash_dir``, every failure also captures a
    reproducible crash bundle (see :mod:`repro.analysis.diagnostics`)
    whose path is attached to the failure record.
    """
    start = time.monotonic()
    ckey = None if store is None else point_cache_key(
        run_point, params, fingerprint=store.fingerprint)

    def fail(exc: BaseException, kind: str) -> PointOutcome:
        elapsed = time.monotonic() - start
        bundle: Optional[str] = None
        if crash_dir is not None:
            from .diagnostics import write_crash_bundle
            bundle = write_crash_bundle(
                crash_dir, key=key, params=params, exc=exc,
                task=task_name(run_point), elapsed=elapsed,
                budget=budget, backend=backend_name)
        failure = RunFailure(
            key=key, reason=type(exc).__name__,
            message=_first_line(exc), attempts=1,
            elapsed=elapsed, params=params, kind=kind, bundle=bundle)
        if store is not None and ckey is not None:
            try:
                store.catalog.record(ckey, "fail",
                                     task=task_name(run_point),
                                     backend=backend_name,
                                     wall_s=elapsed,
                                     summary=summarize_params(params))
            except OSError:
                pass  # catalog is advisory; the failure is recorded
        return PointOutcome(key=key, params=params, failure=failure)

    try:
        result = run_point(params, budget)
    except RECOVERABLE as exc:
        return fail(exc, "error")
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        # A programming error in the experiment script: degrade to a
        # structured failure (with a bundle carrying the traceback)
        # instead of killing the whole sweep from inside a worker.
        return fail(exc, "internal")
    if store is not None and ckey is not None:
        try:
            store.put(ckey, result, meta={"point": key},
                      task=task_name(run_point))
            store.catalog.record(ckey, "miss", task=task_name(run_point),
                                 backend=backend_name,
                                 wall_s=time.monotonic() - start,
                                 summary=summarize_params(params))
        except OSError:
            # Degrade to no-cache: the result is already in hand and
            # correct — a full (or chaos-injected) disk must not turn
            # a finished simulation into a failed point. The point is
            # simply not persisted and recomputes next time.
            return PointOutcome(key=key, params=params, result=result,
                                degraded=True)
    return PointOutcome(key=key, params=params, result=result)


def cached_outcomes(run_point: RunPoint, points: Sequence[Point],
                    store: ResultStore
                    ) -> Tuple[List[PointOutcome], List[Point]]:
    """One fetch per point, before dispatch: ``(hit outcomes, misses)``.

    A hit is bit-identical to a live run by the cache-key contract
    (:mod:`repro.store.keys`); only misses reach a backend. The hits'
    catalog lines go out in one append after the last fetch.
    """
    task = task_name(run_point)
    hits: List[PointOutcome] = []
    misses: List[Point] = []
    lines: List[str] = []
    for key, params in points:
        start = time.monotonic()
        ckey = point_cache_key(run_point, params,
                               fingerprint=store.fingerprint)
        found, result = store.fetch(ckey)
        if not found:
            misses.append((key, params))
            continue
        lines.append(store.catalog.line(
            ckey, "hit", task=task, backend="store",
            wall_s=time.monotonic() - start,
            summary=summarize_params(params)))
        hits.append(PointOutcome(key=key, params=params, result=result,
                                 cached=True))
    try:
        store.catalog.append(lines)
    except OSError:
        pass  # catalog is advisory; the hits still serve
    return hits, misses


class SerialBackend:
    """Run points in-process, in grid order. Always available."""

    jobs = 1

    def execute(self, run_point: RunPoint, points: Sequence[Point],
                budget: RunBudget,
                on_start: Optional[Callable[[str], None]] = None,
                store: Optional[ResultStore] = None,
                crash_dir: Optional[str] = None) -> Iterator[PointOutcome]:
        for key, params in points:
            if on_start is not None:
                on_start(key)
            yield execute_point(run_point, key, params, budget,
                                store=store, backend_name="serial",
                                crash_dir=crash_dir)

    def __repr__(self) -> str:
        return "SerialBackend()"


class _PointState:
    """Book-keeping for one point submitted to the self-healing pool."""

    __slots__ = ("key", "params", "attempts", "first_submit")

    def __init__(self, key: str, params: Dict[str, Any]) -> None:
        self.key = key
        self.params = params
        self.attempts = 0  # submissions so far; on_start fires on the first
        self.first_submit = 0.0


def _exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: exit once the process ``parent`` is gone,
    rather than finish a point a successor may re-run and then block on
    the dead parent's call queue forever."""
    import threading

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class ProcessPoolBackend:
    """Fan points out over a self-healing, spawn-based process pool.

    Args:
        jobs: worker count (default: the machine's CPU count).
        point_timeout: parent-side wall seconds allowed per point. This
            is the backstop for hangs the in-worker engine watchdog
            cannot reach (a callback blocked in C code, a deadlocked
            worker): when no point completes within the stall window
            the hung workers are terminated and their points
            resubmitted or quarantined as
            ``RunFailure(kind="timeout")``. ``None`` (default) derives
            the window from ``budget.wall_clock`` plus slack — or
            disables stall detection when the budget carries no wall
            limit.
        max_point_attempts: submissions allowed per point before it is
            quarantined (default 3). A point's attempt count rises each
            time it is implicated in a broken or stalled pool; its
            *last* attempt runs in an isolated single-worker pool, so
            an innocent point repeatedly co-pending with a
            worker-killer is exonerated before quarantine and only the
            true culprit is recorded as
            ``RunFailure(kind="worker_lost")``.

    Self-healing: a worker death (``os._exit``, segfault, OOM kill)
    breaks the stdlib executor for good, so the backend terminates the
    carcass, respawns a fresh pool, and resubmits every unfinished
    point — the sweep completes with per-point failure records instead
    of aborting. If a replacement pool cannot even be constructed, the
    remaining points degrade to in-process serial execution (isolated
    suspects excluded — re-running a suspected worker-killer in the
    parent could take the whole sweep down with it; they are
    quarantined instead).

    Requirements (enforced eagerly with clear errors):

    * ``run_point`` must be a module-level function — describe the work
      as data (e.g. a :class:`repro.spec.ScenarioSpec` in ``params``)
      rather than a closure over live objects.
    * ``params`` and results must be picklable (JSON-able data and the
      harness dataclasses all are).

    Outcomes are yielded as points finish (not in grid order); the
    harness reassembles grid order, so sweep output is identical to
    :class:`SerialBackend` as long as per-point seeds do not depend on
    execution order — which root-seed derivation guarantees.
    """

    #: Slack added to budget-derived stall windows: spawn start-up,
    #: result pickling, and scheduling jitter all bill to the window.
    _STALL_SLACK = 30.0

    def __init__(self, jobs: Optional[int] = None,
                 point_timeout: Optional[float] = None,
                 max_point_attempts: int = 3) -> None:
        if jobs is not None and jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if point_timeout is not None and point_timeout <= 0:
            raise ConfigurationError(
                f"point_timeout must be > 0, got {point_timeout}")
        if max_point_attempts < 1:
            raise ConfigurationError(
                f"max_point_attempts must be >= 1, got "
                f"{max_point_attempts}")
        self.jobs = jobs or os.cpu_count() or 1
        self.point_timeout = point_timeout
        self.max_point_attempts = max_point_attempts
        #: Telemetry for tests/logs: pools respawned, workers lost.
        self.respawns = 0

    # ------------------------------------------------------------------
    # Stall window
    # ------------------------------------------------------------------

    def _stall_window(self, budget: RunBudget) -> Optional[float]:
        """Wall seconds a point may run before it counts as hung."""
        if self.point_timeout is not None:
            return self.point_timeout
        if budget.wall_clock is None:
            return None
        return budget.wall_clock + self._STALL_SLACK

    # ------------------------------------------------------------------
    # Pool lifecycle helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Kill worker processes and discard the executor.

        Used when the pool is broken or hung: a graceful shutdown would
        join workers that will never return.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    @staticmethod
    def _quarantine(state: _PointState, kind: str,
                    detail: str) -> PointOutcome:
        reason = "WorkerLost" if kind == "worker_lost" else "PointTimeout"
        return PointOutcome(
            key=state.key, params=state.params,
            failure=RunFailure(
                key=state.key, reason=reason, message=detail,
                attempts=state.attempts,
                elapsed=time.monotonic() - state.first_submit,
                params=state.params, kind=kind))

    def execute(self, run_point: RunPoint, points: Sequence[Point],
                budget: RunBudget,
                on_start: Optional[Callable[[str], None]] = None,
                store: Optional[ResultStore] = None,
                crash_dir: Optional[str] = None) -> Iterator[PointOutcome]:
        points = list(points)
        if not points:
            return
        # Every process imports this module; only a pool run pays for these.
        import multiprocessing
        from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                        CancelledError, ProcessPoolExecutor,
                                        wait)

        self._check_picklable(run_point, points)
        context = multiprocessing.get_context("spawn")
        stall = self._stall_window(budget)
        queue = [_PointState(key, params) for key, params in points]
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while queue:
                # Last-chance points run alone in a single-worker pool
                # for exact blame: a pool break with one point in
                # flight can only be that point's doing.
                isolated = [s for s in queue
                            if s.attempts >= self.max_point_attempts - 1]
                batch = isolated[:1] if isolated else queue
                workers = 1 if isolated else min(self.jobs, len(batch))
                try:
                    pool = ProcessPoolExecutor(
                        max_workers=workers, mp_context=context,
                        initializer=_exit_with_parent,
                        initargs=(os.getpid(),))
                except Exception:
                    # Can't build a pool at all (fd/process exhaustion):
                    # degrade to in-process serial execution, skipping
                    # suspects (re-running a worker-killer in the
                    # parent could kill the sweep itself).
                    pool = None
                    for state in queue:
                        if state.attempts > 0:
                            yield self._quarantine(
                                state, "worker_lost",
                                "process pool could not be rebuilt; "
                                "suspect point not retried in-process")
                        else:
                            if on_start is not None:
                                on_start(state.key)
                            yield execute_point(
                                run_point, state.key, state.params,
                                budget, store=store,
                                backend_name="serial-degraded",
                                crash_dir=crash_dir)
                    return
                queue = [s for s in queue if s not in batch]
                future_map: Dict[Any, _PointState] = {}
                for state in batch:
                    state.attempts += 1
                    if state.attempts == 1:
                        state.first_submit = time.monotonic()
                        if on_start is not None:
                            on_start(state.key)
                    # The store travels to the worker (it is plain
                    # paths + a fingerprint): the put happens where the
                    # simulation runs.
                    future_map[pool.submit(
                        execute_point, run_point, state.key,
                        state.params, budget, store, "process-pool",
                        crash_dir)] = state
                pending = set(future_map)
                broken = False
                while pending and not broken:
                    done, pending = wait(pending, timeout=stall,
                                         return_when=FIRST_COMPLETED)
                    if not done:
                        # Nothing finished inside the stall window:
                        # the remaining workers are hung. Kill them
                        # and resubmit/quarantine their points.
                        self.respawns += 1
                        for future in pending:
                            state = future_map[future]
                            if state.attempts >= self.max_point_attempts:
                                yield self._quarantine(
                                    state, "timeout",
                                    f"no progress within {stall:.1f}s "
                                    f"stall window; worker terminated")
                            else:
                                queue.append(state)
                        self._terminate_pool(pool)
                        pool = None
                        break
                    # Consume every finished future before reacting to
                    # a break — results that beat the break to the
                    # finish line must not be lost or re-run.
                    broken_states = []
                    for future in done:
                        state = future_map[future]
                        try:
                            outcome = future.result()
                        except CancelledError:
                            queue.append(state)
                            continue
                        except BrokenExecutor:
                            # A worker died (os._exit, segfault, OOM
                            # kill); the executor is unusable.
                            broken_states.append(state)
                            continue
                        yield outcome
                    if broken_states:
                        # Requeue or quarantine every unfinished point
                        # and respawn the pool.
                        self.respawns += 1
                        casualties = broken_states + [
                            future_map[f] for f in pending]
                        for casualty in casualties:
                            if casualty.attempts \
                                    >= self.max_point_attempts:
                                yield self._quarantine(
                                    casualty, "worker_lost",
                                    "worker process died repeatedly "
                                    "while running this point")
                            else:
                                queue.append(casualty)
                        self._terminate_pool(pool)
                        pool = None
                        broken = True
                if pool is not None:
                    pool.shutdown(wait=True)
                    pool = None
        finally:
            if pool is not None:
                self._terminate_pool(pool)

    @staticmethod
    def _check_picklable(run_point: RunPoint,
                         points: Iterable[Point]) -> None:
        import pickle
        try:
            pickle.dumps(run_point)
        except Exception as exc:
            raise ConfigurationError(
                f"ProcessPoolBackend needs a picklable module-level "
                f"run_point, got {run_point!r} ({exc}); express the "
                f"work as a ScenarioSpec in params and run it from a "
                f"module-level function, or use SerialBackend")
        try:
            pickle.dumps(list(points))
        except Exception as exc:
            raise ConfigurationError(
                f"grid params must be picklable for "
                f"ProcessPoolBackend: {exc}")

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(jobs={self.jobs})"


def make_backend(jobs: Optional[int] = None,
                 point_timeout: Optional[float] = None):
    """``--jobs N`` semantics: None/1 -> serial, N > 1 -> process pool."""
    if jobs is None or jobs <= 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs=jobs, point_timeout=point_timeout)
