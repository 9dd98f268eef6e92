"""Sweep service: an async work-queue daemon over the shared store.

PR 5 gave sweeps a content-addressed result store; PR 8 puts a daemon
in front of it. One long-lived :class:`SweepService` process owns a
worker pool and a durable job queue; any number of clients submit
declarative :class:`JobSpec` documents (a rate-delay sweep grid or a
competition matrix) over a tiny HTTP/JSON API and fetch results that
are **byte-identical** to running the same experiment locally. A warm
submission simulates nothing: every point is a store hit, read before
dispatch.

Layering (strictly one-way):

* :mod:`repro.service.jobs` — the durable job model: normalized specs,
  content-derived job ids, compiled plans, and one append-only log per
  job whose state-transition lines carry the job's snapshot.
* :mod:`repro.service.queue` — :class:`SweepService`: the dispatcher
  draining the queue through :class:`~repro.analysis.harness.
  ResilientSweep` onto the shared store, with coalescing, cooperative
  cancellation, and restart resume. One service holds a job directory
  at a time, under an ``flock`` on the directory itself.
* :mod:`repro.service.server` — :class:`ReproServer`, a
  ``ThreadingHTTPServer`` translating HTTP to service calls.
* :mod:`repro.service.client` — :class:`ServiceClient`, the
  ``http.client`` client used by ``repro submit`` / ``repro jobs``,
  one kept-alive connection per calling thread.

The control plane is chaos-hardened: :mod:`repro.service.chaos`
provides a deterministic, seeded :class:`ChaosPolicy` injecting faults
at named HTTP and filesystem sites (plus :class:`FaultyFS`, the
write-path shim), and every layer is built to survive it — retrying
client, startup takeover of the jobs a killed daemon left ``running``
with a ``dead`` dead-letter state, ENOSPC degrade-to-no-cache, and
store self-repair (``repro cache verify --repair``).

From the CLI: ``repro serve --job-dir DIR --cache-dir DIR`` starts a
daemon (add ``--chaos SPEC.json`` to arm fault injection);
``repro submit sweep --cca vegas ...`` runs an experiment through it;
``repro jobs`` inspects the queue (``--state dead`` for the
dead-letter listing).
"""

from .chaos import ChaosPolicy, ChaosSite, FaultyFS
from .client import ServiceClient
from .jobs import Job, JobSpec, JobStore, build_plan, job_id
from .queue import SweepService, render_result
from .server import ReproServer, serve_background

__all__ = [
    "ChaosPolicy", "ChaosSite", "FaultyFS", "Job", "JobSpec",
    "JobStore", "ReproServer", "ServiceClient", "SweepService",
    "build_plan", "job_id", "render_result", "serve_background",
]
