"""Durable job model: what the sweep service is asked to compute.

A *job* is one declarative batch of simulation work — a rate-delay
sweep grid or a competition matrix — expressed as pure data so it can
cross an HTTP boundary, be hashed to a stable id, and be replayed after
a daemon restart. The moving parts:

* :class:`JobSpec` — the normalized request. Normalization (JSON shape
  checked, defaults filled in, numbers coerced) happens at construction
  so two documents describing the same experiment serialize identically
  and therefore share one content-derived :func:`job_id`. The field
  names, which of them are required, and every default come from the
  kind's compiler signature (:data:`COMPILERS`), so a parameter is
  declared once.
* :func:`build_plan` — hands the spec's params to the plan compiler
  for its kind (:func:`repro.analysis.sweep.compile_sweep_plan` /
  :func:`repro.analysis.competition.compile_matrix_plan`), the same
  compiler a local ``repro sweep`` / ``repro matrix`` of the same
  parameters goes through, and the one that checks their values.
  Byte-identity between a submitted job and a local run is *by
  construction*, not by test luck.
* :class:`Job` — the mutable execution record: state machine
  (``queued → running → done|failed|cancelled``, plus ``dead`` when a
  job exhausts its takeover attempt budget), per-point progress
  counters (done / cached / failed), timestamps, error text.
* :class:`JobStore` — one directory per job: an append-only NDJSON
  log (``events.ndjson``) whose every state-transition line carries
  the job's snapshot, and the rendered result document
  (``result.json``). A restarted daemon rebuilds its queue from the
  logs alone.
"""

from __future__ import annotations

import inspect
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..analysis.competition import compile_matrix_plan
from ..analysis.plan import JobPlan
from ..analysis.sweep import compile_sweep_plan
from ..errors import ConfigurationError, ServiceError
from ..store import cache_key
from ..store.fsio import FileIO, tail_sealed

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: Dead-letter: ``max_attempts`` daemons picked the job up and every one
#: died mid-run, so each next daemon found it ``running`` at startup.
#: Listed via ``GET /jobs?state=dead`` for operator triage; a resubmit
#: resets the attempt budget and tries again.
DEAD = "dead"
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, DEAD)
#: States a job cannot leave without being resubmitted.
TERMINAL = (DONE, FAILED, CANCELLED, DEAD)

#: Every job kind and the plan compiler that runs it. A compiler's
#: signature is the one declaration of its kind's parameters: their
#: names, which are required, and every default.
COMPILERS = {"sweep": compile_sweep_plan, "matrix": compile_matrix_plan}

#: The task identity hashed into every job id (versioned with the code
#: fingerprint, so ids roll over when result-affecting code changes).
JOB_TASK = "repro.service:job"


def _number(value: Any, name: str) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ServiceError(f"{name} must be a number, got {value!r}")


def _integer(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{name} must be an integer, got {value!r}")
    return value


def _array(value: Any, name: str) -> List[Any]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ServiceError(f"{name} must be a non-empty JSON array, "
                           f"got {value!r}")
    return list(value)


def _numbers(value: Any, name: str) -> List[float]:
    return [_number(item, f"{name}[]") for item in _array(value, name)]


def _object(value: Any, name: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise ServiceError(
            f"{name} must be a JSON object or null, got {value!r}")
    return value


def _string(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise ServiceError(f"{name} must be a string, got {value!r}")
    return value


#: The JSON shape of every compiler parameter (``CCASpec`` checks a CCA
#: name when the plan compiles).
_SHAPES = {
    "cca": _string, "ccas": _array, "rates_mbps": _numbers,
    "rate_mbps": _number, "rm_ms": _number, "duration": _number,
    "warmup_fraction": _number, "starve_threshold": _number,
    "seed": _integer, "mss": _integer,
    "template": _object, "topology": _object,
}

_REQUIRED = inspect.Parameter.empty

#: ``{kind: {field: (shape, default)}}`` in signature order, read once.
_FIELDS = {
    kind: {name: (_SHAPES[name], param.default)
           for name, param in inspect.signature(compiler).parameters.items()}
    for kind, compiler in COMPILERS.items()}


@dataclass(frozen=True)
class JobSpec:
    """A normalized service request (values are checked by
    :func:`build_plan`, which submit runs before it accepts a job).

    ``kind`` selects the grid family; ``params`` holds exactly the
    keywords of that kind's compiler (:data:`COMPILERS`), every default
    filled in explicitly, so the JSON form — and therefore the
    content-derived job id — is a pure function of the experiment, not
    of which optional keys the client happened to send. ``template`` /
    ``topology`` are a serialized :class:`~repro.spec.ScenarioSpec` /
    :class:`~repro.spec.TopologySpec`.
    """

    kind: str
    params: Dict[str, Any]

    @staticmethod
    def sweep(cca: str, rates_mbps: List[float], rm_ms: float,
              **optional: Any) -> "JobSpec":
        """A sweep spec from keywords, normalized as :meth:`from_json`."""
        return JobSpec.from_json({"kind": "sweep", "cca": cca,
                                  "rates_mbps": rates_mbps,
                                  "rm_ms": rm_ms, **optional})

    @staticmethod
    def from_json(data: Any) -> "JobSpec":
        """Normalize a client-submitted document into a JobSpec.

        ``null`` stands for a field exactly where its compiler default
        is None (a sweep's ``duration``, a ``template``).
        """
        if not isinstance(data, dict):
            raise ServiceError(
                f"job spec must be a JSON object, got {type(data).__name__}")
        kind = data.get("kind")
        fields = _FIELDS.get(kind)
        if fields is None:
            raise ServiceError(
                f"job kind must be one of {tuple(COMPILERS)}, got {kind!r}")
        unknown = sorted(set(data) - fields.keys() - {"kind"})
        if unknown:
            raise ServiceError(f"unknown {kind} spec field(s): {unknown}")
        params = {}
        for name, (shape, default) in fields.items():
            if name not in data:
                if default is _REQUIRED:
                    raise ServiceError(
                        f"bad {kind} spec: missing field {name!r}")
                params[name] = default
            elif data[name] is None and default is None:
                params[name] = None
            else:
                params[name] = shape(data[name], name)
        return JobSpec(kind, params)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, **self.params}


def job_id(spec: JobSpec) -> str:
    """The content-derived job id: 16 hex chars of the spec's cache key.

    Derived through :func:`repro.store.cache_key`, so the id covers the
    normalized spec *and* the code fingerprint — two clients submitting
    the same experiment coalesce onto one job, and a new code version
    (whose results could differ) gets fresh ids by construction.
    """
    return cache_key(JOB_TASK, spec.to_json())[:16]


def build_plan(spec: JobSpec) -> JobPlan:
    """Compile a spec into the exact grid a local CLI run would execute.

    Only dispatches on ``spec.kind``: the compilers live in
    :mod:`repro.analysis`, take exactly that kind's normalized params
    as keywords, and are the ones ``repro sweep`` / ``repro matrix``
    use, so a submitted job's cache keys and result document are
    byte-identical to a local run of the same parameters — the service
    adds a transport, never a new semantics.
    """
    try:
        return COMPILERS[spec.kind](**spec.params)
    except ConfigurationError as exc:  # SpecValidationError included
        raise ServiceError(f"cannot compile {spec.kind} spec: {exc}")


@dataclass
class Job:
    """The mutable execution record of one submitted spec."""

    id: str
    spec: JobSpec
    state: str = QUEUED
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Progress counters: ``total`` grid points, of which ``done`` were
    #: simulated live, ``cached`` served from the store, ``failed``
    #: recorded as RunFailures.
    total: int = 0
    done: int = 0
    cached: int = 0
    failed: int = 0
    #: Times this job has been (re)executed — a resubmitted spec re-runs
    #: under the same id with counters reset.
    runs: int = 0
    #: Executions charged against the current submission's attempt
    #: budget (unlike ``runs``, reset by :meth:`reset_run`); when a
    #: startup takeover would exceed the service's ``max_attempts``,
    #: the job goes ``dead`` instead of requeueing.
    attempts: int = 0
    #: True when every point of the last execution was a store hit,
    #: read before dispatch, so no point simulated.
    warm: bool = False
    #: True when the execution hit storage faults and degraded to
    #: no-cache mode (results correct, some points not persisted).
    degraded: bool = False
    error: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "spec": self.spec.to_json(),
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "progress": {"total": self.total, "done": self.done,
                         "cached": self.cached, "failed": self.failed},
            "runs": self.runs,
            "attempts": self.attempts,
            "warm": self.warm,
            "degraded": self.degraded,
            "error": self.error,
        }

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "Job":
        progress = data.get("progress") or {}
        state = data.get("state")
        if state not in STATES:
            raise ConfigurationError(f"bad job state {state!r}")
        return Job(
            id=data["id"], spec=JobSpec.from_json(data["spec"]),
            state=state, created=data.get("created", 0.0),
            started=data.get("started"), finished=data.get("finished"),
            total=int(progress.get("total", 0)),
            done=int(progress.get("done", 0)),
            cached=int(progress.get("cached", 0)),
            failed=int(progress.get("failed", 0)),
            runs=int(data.get("runs", 0)),
            attempts=int(data.get("attempts", 0)),
            warm=bool(data.get("warm", False)),
            degraded=bool(data.get("degraded", False)),
            error=data.get("error"))

    def reset_run(self) -> None:
        """Back to the queue for a fresh execution (resubmit/requeue)."""
        self.state = QUEUED
        self.started = None
        self.finished = None
        self.total = self.done = self.cached = self.failed = 0
        self.attempts = 0
        self.warm = False
        self.degraded = False
        self.error = None


class JobStore:
    """One directory per job, crash-safe, readable by a cold daemon.

    Layout::

        <root>/<job id>/events.ndjson   the job's log, one line per event
                        result.json     rendered result document

    The log is the job's only durable record. Every state transition
    is one line carrying the job's snapshot under ``job``
    (:meth:`save`); per-point progress lines carry none
    (:meth:`append_event`). Every append seals a torn trailing line
    first, the same discipline as the store catalog, so one killed
    append never corrupts later records; and :meth:`load` takes the
    last parseable snapshot, so a killed daemon leaves at worst the
    previous state, stale but parseable. :meth:`load_all` is how a
    restarted daemon resumes its queue. Writes go through the
    injectable :class:`~repro.store.fsio.FileIO` seam, like the result
    store's.
    """

    def __init__(self, root: str, fs: Optional[FileIO] = None) -> None:
        if not root:
            raise ConfigurationError("JobStore needs a root directory")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.fs = fs if fs is not None else FileIO()
        self._lock = threading.Lock()
        #: Next event sequence number per job id (lazily initialized
        #: from the log's line count on first append).
        self._event_seq: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def job_dir(self, jid: str) -> str:
        if not jid or os.sep in jid or jid.startswith("."):
            raise ConfigurationError(f"malformed job id {jid!r}")
        return os.path.join(self.root, jid)

    def _events_path(self, jid: str) -> str:
        return os.path.join(self.job_dir(jid), "events.ndjson")

    def _result_path(self, jid: str) -> str:
        return os.path.join(self.job_dir(jid), "result.json")

    # ------------------------------------------------------------------
    # The log
    # ------------------------------------------------------------------

    def save(self, job: Job, event: Dict[str, Any],
             new_log: bool = False) -> int:
        """Log one state transition: ``event`` with the job's snapshot.

        One sealed append, or with ``new_log`` one atomic write that
        swaps in a log holding only this line (a resubmit starts its
        events from seq 0, and the old record stands until the swap).
        Returns the line's sequence number.
        """
        return self._append(job.id, ({**event, "job": job.to_json()},),
                            new_log)

    def append_event(self, jid: str, event: Dict[str, Any],
                     *more: Dict[str, Any]) -> int:
        """Append progress lines, one per event, in one write; returns
        the last line's sequence number."""
        return self._append(jid, (event, *more))

    def _append(self, jid: str, docs: Tuple[Dict[str, Any], ...],
                new_log: bool = False) -> int:
        with self._lock:
            seq = 0 if new_log else self._event_seq.get(jid)
            if seq is None:
                seq = len(self._lines(jid))
            path = self._events_path(jid)
            ts = round(time.time(), 3)
            text = "".join(json.dumps({"seq": seq + n, "ts": ts, **doc},
                                      sort_keys=True) + "\n"
                           for n, doc in enumerate(docs))
            if new_log:
                self.fs.write_atomic(path, text, prefix=".events-")
            else:
                # Seal-on-next-append (same rule as the store catalog):
                # a daemon killed mid-append leaves a torn final line;
                # weld this record onto it and both are lost to readers.
                prefix = "" if tail_sealed(path) else "\n"
                self.fs.append(path, prefix + text)
            self._event_seq[jid] = seq + len(docs)
            return seq + len(docs) - 1

    def _lines(self, jid: str) -> List[Dict[str, Any]]:
        """Every parseable line of the log, oldest first."""
        try:
            with open(self._events_path(jid), "r",
                      encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            return []
        docs = []
        for line in text.split("\n"):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line from a killed daemon, or blank
            if isinstance(doc, dict):
                docs.append(doc)
        return docs

    def load(self, jid: str) -> Optional[Job]:
        """The job as its last readable transition left it, or None."""
        for doc in reversed(self._lines(jid)):
            try:
                return Job.from_json(doc["job"])
            except (ConfigurationError, ServiceError, KeyError,
                    TypeError, ValueError, AttributeError):
                continue  # a point line, or a damaged snapshot
        return None

    def load_all(self) -> List[Job]:
        """Every logged job, oldest submission first."""
        jobs: List[Job] = []
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return jobs
        for name in names:
            if os.path.isdir(os.path.join(self.root, name)):
                job = self.load(name)
                if job is not None:
                    jobs.append(job)
        jobs.sort(key=lambda job: (job.created, job.id))
        return jobs

    def events(self, jid: str, since: int = 0) -> Iterator[Dict[str, Any]]:
        """Log lines with ``seq >= since``, oldest first, without their
        snapshots."""
        for doc in self._lines(jid):
            if doc.get("seq", 0) >= since:
                doc.pop("job", None)
                yield doc

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def write_result(self, jid: str, text: str) -> None:
        """Atomically persist the rendered result document."""
        self.fs.write_atomic(self._result_path(jid), text,
                             prefix=".result-")

    def read_result(self, jid: str) -> Optional[bytes]:
        try:
            with open(self._result_path(jid), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def __repr__(self) -> str:
        return f"JobStore({self.root!r})"
