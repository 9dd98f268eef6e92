"""The sweep service: an async work queue over the shared result store.

:class:`SweepService` owns the durable job queue. Clients (the HTTP
server, tests, or in-process callers) submit :class:`~.jobs.JobSpec`
documents; a single dispatcher thread drains the queue and executes one
job at a time, fanning that job's grid points out across the configured
:class:`~repro.analysis.backends.ProcessPoolBackend` workers. All jobs
feed one shared :class:`~repro.store.ResultStore`, so a point computed
for any client — or by a local ``repro sweep`` against the same cache
directory — is a catalog *hit* for every later job that needs it.

Design points:

* **Coalescing** — job ids are content-derived, so resubmitting an
  active spec returns the in-flight job instead of queueing a
  duplicate. Resubmitting a *terminal* spec re-executes it; with a warm
  store every point is a hit read before dispatch, so no pool starts.
* **Durability** — every state transition is one line of the job's
  log (:meth:`~.jobs.JobStore.save`), carrying the job's snapshot and
  written before the transition is visible; per-point progress lives
  in memory and in snapshot-free lines of the same log.
* **One daemon per job directory** — :meth:`start` takes a
  non-blocking ``flock`` on the directory itself, held until the
  dispatcher exits and dropped by the OS if the process dies; a second
  service there raises :class:`~repro.errors.ServiceError`. So a job
  found ``running`` at startup is orphaned, and is *taken over*:
  requeued to re-run against the store (its finished points are hits,
  only the point in flight at the kill simulates again) or, once
  ``max_attempts`` executions are charged, parked ``dead`` for operator
  triage (``GET /jobs?state=dead``).
* **Degraded mode** — storage faults (ENOSPC and friends) during a run
  skip the cache ``put`` but keep the computed result
  (:func:`~repro.analysis.backends.execute_point` degrades per point);
  the job completes with ``degraded: true`` in its snapshot, events,
  and the service stats, instead of failing a whole sweep because the
  disk filled up. Job-state persistence itself is best-effort under
  the same faults: the in-memory queue stays authoritative and the
  job is flagged degraded.
* **Cancellation** — cooperative, via the harness ``stop_check``:
  queued jobs cancel immediately, running jobs stop at the next point
  boundary with every finished point in the store.
* **Fail-fast** — ``max_failures`` rides through to
  :class:`~repro.analysis.harness.ResilientSweep`; a tripped threshold
  fails the job with the harness's error message, and per-point crash
  bundles land under the job directory.
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
import time
from typing import Any, Dict, List, Optional

from ..analysis.harness import RunBudget
from ..analysis.plan import JobPlan, render_result, run_plan
from ..errors import ConfigurationError, ServiceError, SweepAbortedError
from ..store import ResultStore
from ..store import point_cache_key  # noqa: F401 (bench/layers.py wraps it)
from ..store.fsio import FileIO
from ..store.locks import try_lock
from .jobs import (CANCELLED, DEAD, DONE, FAILED, QUEUED, RUNNING,
                   TERMINAL, Job, JobSpec, JobStore, build_plan, job_id)


class SweepService:
    """Durable job queue executing sweep/matrix specs over one store.

    Args:
        job_root: directory for per-job state (``<root>/<id>/...``).
        store: the shared content-addressed result store. Every point
            of every job crosses it, which is what makes warm
            resubmissions all-hits and results shareable with local
            ``repro sweep --cache-dir`` runs.
        jobs: worker processes per executing job (``None``/1 = serial).
        budget: per-point watchdog budget.
        max_failures: fail a job once more than this many points have
            failed (None = run every point regardless).
        max_attempts: executions charged to one submission before a
            startup takeover declares the job ``dead`` instead of
            requeueing it (a job that kills every daemon that touches
            it must not poison-pill the queue forever).
        fs: filesystem seam for job persistence (chaos tests inject a
            :class:`~repro.service.chaos.FaultyFS`).
    """

    def __init__(self, job_root: str, store: ResultStore,
                 jobs: Optional[int] = None,
                 budget: Optional[RunBudget] = None,
                 max_failures: Optional[int] = None,
                 max_attempts: int = 3,
                 fs: Optional[FileIO] = None) -> None:
        if int(max_attempts) < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts!r}")
        self.job_store = JobStore(job_root, fs=fs)
        self.store = store
        self.jobs = jobs
        self.budget = budget
        self.max_failures = max_failures
        self.max_attempts = int(max_attempts)
        self._jobs: Dict[str, Job] = {}
        #: Plans compiled at submit, each popped by the run that uses it.
        self._plans: Dict[str, JobPlan] = {}
        self._lock = threading.RLock()
        #: Notified when a job turns terminal and on :meth:`stop`;
        #: :meth:`wait_terminal` sleeps on it.
        self._changed = threading.Condition(self._lock)
        self._queue: "queue_module.Queue[Optional[str]]" = \
            queue_module.Queue()
        self._cancel_events: Dict[str, threading.Event] = {}
        self._stopping = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self._started = time.time()
        #: Lifetime counters, reported by /stats.
        self._submitted = 0
        self._coalesced = 0
        self._completed = 0
        self._warm_hits = 0
        self._takeovers = 0
        self._dead = 0
        self._waits = 0
        self._waits_expired = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Lock the job directory (:class:`ServiceError` if another
        service holds it), requeue unfinished jobs, start draining."""
        with self._lock:
            if self._dispatcher is not None:
                raise ServiceError("service already started")
            root = self.job_store.root
            try:
                held = try_lock(root)
            except BlockingIOError:
                raise ServiceError(
                    f"job directory {root} is in use by another daemon")
            self._stopping.clear()
            for job in self.job_store.load_all():
                self._jobs[job.id] = job
                if job.state == RUNNING:  # its daemon is gone
                    self._takeover(job)
                if job.state == QUEUED:
                    self._queue.put(job.id)
            self._dispatcher = threading.Thread(
                target=self._drain, args=(held,),
                name="sweep-service-dispatcher", daemon=True)
            self._dispatcher.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop draining; a mid-run job goes back to queued on disk, and
        the job directory is unlocked once the dispatcher exits."""
        with self._lock:
            dispatcher = self._dispatcher
            if dispatcher is None:
                return
            self._dispatcher = None
            self._stopping.set()
            self._changed.notify_all()  # blocked long-polls answer now
        self._queue.put(None)
        dispatcher.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Queue a spec; returns the (possibly pre-existing) job.

        Active jobs coalesce: a spec already queued or running is
        returned as-is. Terminal jobs (done/failed/cancelled) are
        re-executed under the same id — a fresh log replaces the
        previous run's and every point flows through the result store
        again (warm store ⇒ all catalog hits, no simulations).
        """
        plan = build_plan(spec)  # surface bad specs at submit time
        jid = job_id(spec)
        with self._lock:
            self._submitted += 1
            job = self._jobs.get(jid)
            if job is not None and job.state not in TERMINAL:
                self._coalesced += 1
                return job
            fresh = job is None
            if fresh:
                job = Job(id=jid, spec=spec,
                          created=round(time.time(), 3))
                self._jobs[jid] = job
            else:
                job.reset_run()
                job.created = round(time.time(), 3)
            self._cancel_events.pop(jid, None)
            try:
                # The submit ack must be durable — a client told
                # "queued" expects the job to survive a daemon restart.
                # On a storage fault, un-register and let the error
                # surface as a retryable 503 (resubmit is idempotent).
                # A resubmit swaps in a fresh log, so a fault leaves
                # the previous run's record whole.
                self.job_store.save(job, {"event": "queued"},
                                    new_log=not fresh)
            except OSError:
                if fresh:
                    self._jobs.pop(jid, None)
                else:
                    # Already reset in memory: keep it executable (a
                    # client retry coalesces onto it) but flag the
                    # durability gap.
                    job.degraded = True
                    self._plans[jid] = plan
                    self._queue.put(jid)
                raise
            self._plans[jid] = plan
            self._queue.put(jid)
            return job

    def get(self, jid: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(jid)

    def list_jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(),
                          key=lambda job: (job.created, job.id))

    def snapshot(self, jid: str) -> Optional[Dict[str, Any]]:
        """One job's JSON snapshot, or None for an unknown id."""
        return self.wait_terminal(jid, 0.0)

    def snapshots(self, state: Optional[str] = None
                  ) -> List[Dict[str, Any]]:
        """Every job's snapshot (optionally one state), oldest first."""
        with self._lock:
            return [job.to_json() for job in self.list_jobs()
                    if state is None or job.state == state]

    def wait_terminal(self, jid: str,
                      timeout: float) -> Optional[Dict[str, Any]]:
        """The job's snapshot, once it is terminal (None = unknown id).

        Blocks at most ``timeout`` seconds (0 = not at all) and returns
        early when the service stops; the snapshot then shows whatever
        state the job is in. Serialized under the lock, because the
        dispatcher updates the live :class:`Job` field by field and a
        reader outside it can see ``done`` beside ``finished: null``.
        """
        with self._changed:
            job = self._jobs.get(jid)
            if job is None:
                return None
            if timeout > 0:
                self._waits += 1
                if not self._changed.wait_for(
                        lambda: (job.state in TERMINAL
                                 or self._stopping.is_set()), timeout):
                    self._waits_expired += 1
            return job.to_json()

    def result_bytes(self, jid: str) -> Optional[bytes]:
        return self.job_store.read_result(jid)

    def events(self, jid: str, since: int = 0) -> List[Dict[str, Any]]:
        return list(self.job_store.events(jid, since=since))

    def cancel(self, jid: str) -> Optional[Job]:
        """Cancel a job: immediate when queued, cooperative when running.

        Returns the job (state may still be ``running`` briefly — the
        dispatcher confirms the cancellation at the next point
        boundary), or None for unknown ids. Terminal jobs are returned
        unchanged.
        """
        with self._lock:
            job = self._jobs.get(jid)
            if job is None or job.state in TERMINAL:
                return job
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished = round(time.time(), 3)
                self._persist(job, {"event": "cancelled"})
                self._changed.notify_all()
                return job
            event = self._cancel_events.get(jid)
            if event is not None:
                event.set()
            return job

    def stats(self) -> Dict[str, Any]:
        """Service-level counters plus the shared store's catalog view."""
        with self._lock:
            states: Dict[str, int] = {}
            degraded = 0
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
                if job.degraded:
                    degraded += 1
            counters = {
                "submitted": self._submitted,
                "coalesced": self._coalesced,
                "completed": self._completed,
                "warm": self._warm_hits,
                "takeovers": self._takeovers,
                "dead": self._dead,
                "degraded": degraded,
                "waits": self._waits,
                "waits_expired": self._waits_expired,
            }
        store_stats = self.store.stats()
        return {
            "uptime_s": round(time.time() - self._started, 3),
            "jobs": states,
            "counters": counters,
            "store": {
                "entries": store_stats.entries,
                "total_bytes": store_stats.total_bytes,
                "events": dict(store_stats.events),
                "hit_rate": round(store_stats.hit_rate, 4),
            },
        }

    def health(self) -> Dict[str, Any]:
        """The detailed liveness payload behind ``/healthz``.

        Distinguishes *hung* from *busy* for external monitors: a
        dead dispatcher thread or an unwritable store is unhealthy
        (``ok: false`` → the server answers 503), while a deep queue
        with a live dispatcher is just load.
        """
        with self._lock:
            dispatcher = self._dispatcher
            queue_depth = self._queue.qsize()
            running = sum(1 for job in self._jobs.values()
                          if job.state == RUNNING)
        dispatcher_alive = (dispatcher is not None
                            and dispatcher.is_alive())
        store_writable = self.store.writable()
        return {
            "ok": bool(dispatcher_alive and store_writable),
            "dispatcher_alive": dispatcher_alive,
            "queue_depth": queue_depth,
            "running": running,
            "store_writable": store_writable,
            "uptime_s": round(time.time() - self._started, 3),
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _drain(self, held: Optional[int]) -> None:
        try:
            for jid in iter(self._queue.get, None):
                if self._stopping.is_set():
                    break
                with self._lock:
                    job = self._jobs.get(jid)
                    if job is None or job.state != QUEUED:
                        self._plans.pop(jid, None)
                        continue  # cancelled while queued, or stale entry
                try:
                    self._execute(job)
                except BaseException as exc:  # noqa: BLE001 - keep draining
                    self._finish(job, FAILED,
                                 error=f"{type(exc).__name__}: {exc}")
                finally:
                    with self._lock:
                        self._cancel_events.pop(jid, None)
        finally:
            if held is not None:
                os.close(held)  # unlock the job directory

    def _takeover(self, job: Job) -> None:
        """Claim an orphaned running job: requeue it, or dead-letter it.

        Caller holds the lock. ``attempts`` already counts the
        execution whose daemon died, so a job that has burned its
        whole budget goes ``dead`` — an operator can inspect it via
        the dead-letter listing and resubmit to grant a fresh budget.
        """
        self._takeovers += 1
        event = {"event": "takeover", "attempts": job.attempts}
        if job.attempts >= self.max_attempts:
            self._dead += 1
            self._event(job.id, event)
            self._finish(job, DEAD, error=(
                f"orphaned after {job.attempts} attempt(s); "
                f"giving up (max_attempts={self.max_attempts})"))
            return
        job.state = QUEUED
        self._persist(job, event)
        self._queue.put(job.id)

    # ------------------------------------------------------------------
    # Best-effort persistence (the disk may be lying — see chaos tests)
    # ------------------------------------------------------------------

    def _persist(self, job: Job, event: Dict[str, Any]) -> None:
        """Log a state transition; storage faults degrade, never crash.

        The in-memory job table stays authoritative while the disk
        misbehaves; the job is flagged ``degraded`` so operators know
        the logged state may lag.
        """
        try:
            self.job_store.save(job, event)
        except OSError:
            job.degraded = True

    def _event(self, jid: str, event: Dict[str, Any],
               *more: Dict[str, Any]) -> None:
        """Append progress events; the stream is advisory under faults."""
        try:
            self.job_store.append_event(jid, event, *more)
        except OSError:
            pass

    def _execute(self, job: Job) -> None:
        with self._lock:
            plan = self._plans.pop(job.id, None)
        if plan is None:  # reloaded from disk: takeover or restart
            plan = build_plan(job.spec)
        cancel = threading.Event()
        with self._lock:
            if job.state != QUEUED:
                return  # cancelled while its plan was built
            # One write moves the job to ``running``. Every execution
            # counts from zero: a takeover re-run sees the points its
            # predecessor finished as ``cached``.
            job.state = RUNNING
            job.started = round(time.time(), 3)
            job.runs += 1
            job.attempts += 1
            job.total = len(plan.points)
            job.done = job.cached = job.failed = 0
            self._persist(job, {
                "event": "started", "total": job.total, "run": job.runs,
                "attempt": job.attempts})
            self._cancel_events[job.id] = cancel

        # The store's hits are reported before any point runs; their
        # events wait here and go out in one append with the first
        # non-cached status, or when the run returns.
        pending: List[Dict[str, Any]] = []

        def flush() -> None:
            if pending:
                self._event(job.id, *pending)
                pending.clear()

        def progress(key: str, status: str) -> None:
            event = self._note_progress(job, key, status)
            if event is not None:
                pending.append(event)
            if status != "cached":
                flush()

        def stop_check() -> bool:
            return cancel.is_set() or self._stopping.is_set()

        try:
            try:
                outcome, result = run_plan(
                    plan, budget=self.budget, jobs=self.jobs,
                    store=self.store, progress=progress,
                    crash_dir=os.path.join(self.job_store.job_dir(job.id),
                                           "crashes"),
                    max_failures=self.max_failures, stop_check=stop_check)
            finally:
                flush()
        except SweepAbortedError as exc:
            self._finish(job, FAILED, error=str(exc))
            return

        warm = outcome.hits == len(plan.points)  # no pool started
        with self._lock:
            job.warm = warm
            if outcome.degraded:
                job.degraded = True

        if outcome.stopped:
            if cancel.is_set():
                self._finish(job, CANCELLED)
            else:
                # Service shutdown: back to the queue on disk so the
                # next daemon re-runs it against the store.
                with self._lock:
                    job.state = QUEUED
                    self._persist(job, {"event": "requeued"})
            return

        text = render_result(result.to_json())
        self._write_result_with_retry(job, text)
        if warm:
            with self._lock:
                self._warm_hits += 1
        self._finish(job, DONE)

    def _write_result_with_retry(self, job: Job, text: str,
                                 attempts: int = 3) -> None:
        """Persist the result document, riding out transient faults.

        The result is the one artifact that cannot degrade to
        memory-only — ``GET /result`` serves the file. A handful of
        spaced attempts covers blips (chaos, NFS hiccups); a disk that
        stays broken fails the job with a clear error.
        """
        for attempt in range(attempts):
            try:
                self.job_store.write_result(job.id, text)
                return
            except OSError as exc:
                job.degraded = True
                if attempt == attempts - 1:
                    raise ServiceError(
                        f"cannot persist result for job {job.id}: "
                        f"{exc}") from exc
                time.sleep(0.05 * (2.0 ** attempt))

    def _note_progress(self, job: Job, key: str,
                       status: str) -> Optional[Dict[str, Any]]:
        """Count one point's status; its ``point`` event, or None for
        the ``run`` dispatch mark."""
        degraded_point = False
        with self._lock:
            if status == "cached":
                job.cached += 1
            elif status == "ok":
                job.done += 1
            elif status == "degraded":
                # Simulated fine, but the store couldn't keep it: a
                # completed point that will be recomputed next time.
                job.done += 1
                job.degraded = True
                degraded_point = True
            elif status.startswith("failed"):
                job.failed += 1
            else:
                return None  # "run" marks dispatch, not completion
        event: Dict[str, Any] = {"event": "point", "key": key,
                                 "status": status}
        if degraded_point:
            event["degraded"] = True
        return event

    def _finish(self, job: Job, state: str,
                error: Optional[str] = None) -> None:
        event: Dict[str, Any] = {"event": state}
        if error:
            event["error"] = error
        with self._lock:
            job.state = state
            job.finished = round(time.time(), 3)
            job.error = error
            # Under the lock, before anyone can see the new state: a
            # client answered "done" reads a stream that ends in it.
            self._persist(job, event)
            self._changed.notify_all()
            if state == DONE:
                self._completed += 1

    def __repr__(self) -> str:
        return (f"SweepService(root={self.job_store.root!r}, "
                f"jobs={self.jobs!r})")
