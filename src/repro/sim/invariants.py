"""Runtime invariant sentinel for the simulator.

The paper's headline numbers are quantitative (starvation ratios from
long emulations), so a silently mis-simulated run — a leaked packet, a
NaN rate, a clock that steps backwards — is worse than a crashed one.
The :class:`InvariantSentinel` mechanically checks three invariant
families while a scenario runs:

* **conservation** — every packet sent is dropped, delivered, or in
  flight. The checks compare monotone per-component counters (sender
  ``sent_packets``, receiver ``received_packets``, per-element
  ``dropped``/``duplicated``, queue ``drops``) plus the
  exact per-sender identity ``sum(unacked sizes) == inflight_bytes``.
* **causality** — the simulation clock and every per-flow ACK sequence
  are monotone non-decreasing, and no recorded sample lies in the
  future.
* **sanity** — cwnd is positive and not NaN (``inf`` is the documented
  encoding for purely rate-based CCAs), pacing rate is non-negative and
  finite, queue occupancy stays within the configured capacity, and no
  NaN/Inf leaks into the recorded traces (``pacing_values`` NaN is the
  documented "unpaced" encoding and is allowed). Every CCA's published
  outputs must be exactly what its ``outputs()`` recomputes from its
  state (NaN-safe; see :mod:`repro.ccas.base`).

Modes (``REPRO_INVARIANTS`` environment variable, or explicit):

* ``off`` — sentinel never attaches; the run loop's one
  ``sentinel is not None`` test per event is all that is left of it.
* ``warn`` (default) — violations emit :class:`InvariantWarning` (once
  per check site) and are recorded on ``sentinel.violations``; the run
  continues.
* ``strict`` — the first violation raises
  :class:`~repro.errors.InvariantViolation` with a structured
  ``details`` dict (offending values + a tail of the recorder traces)
  that crash bundles persist for post-mortem analysis.

Checks are cadence-sampled from the engine run loop (every
``cadence`` executed events, plus once at the end of every
``Simulator.run``) and scan only trace samples appended since the
previous check, so ``strict`` stays within a few percent of the
uninstrumented hot path. The sentinel schedules **no events of its
own** and mutates nothing, so attaching it is bit-invisible to the
event stream — the golden-trace battery passes unchanged in strict
mode.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager
from typing import Dict, List, Optional

from ..errors import InvariantViolation

#: Environment variable consulted for the default sentinel mode.
ENV_VAR = "REPRO_INVARIANTS"

VALID_MODES = ("off", "warn", "strict")

#: Executed events between full check batteries. Tuned so strict mode
#: costs <10% of a run (checks amortize to a few comparisons per event;
#: the per-check trace scans are incremental); the repo benchmark
#: reports it as ``sim.invariants.strict_delta_cal_ms``.
DEFAULT_CADENCE = 4096

#: Recorder samples captured into ``InvariantViolation.details``.
TRACE_TAIL = 8

#: Cap on recorded violations in warn mode (first N kept).
_MAX_RECORDED = 100

_EPS = 1e-9

#: Process-wide override installed by :func:`override_mode`; takes
#: precedence over the environment variable (used by ``repro replay
#: --strict`` and tests).
_MODE_OVERRIDE: Optional[str] = None


class InvariantWarning(UserWarning):
    """Emitted (once per check site) when the sentinel runs in warn mode."""


def _validate_mode(mode: str) -> str:
    if mode not in VALID_MODES:
        raise ValueError(
            f"invalid invariant mode {mode!r}; expected one of "
            f"{', '.join(VALID_MODES)}")
    return mode


def resolve_mode(explicit: Optional[str] = None) -> str:
    """Resolve the sentinel mode: explicit > override > env > "warn"."""
    if explicit is not None:
        return _validate_mode(explicit)
    if _MODE_OVERRIDE is not None:
        return _MODE_OVERRIDE
    env = os.environ.get(ENV_VAR, "").strip().lower()
    if env:
        return _validate_mode(env)
    return "warn"


@contextmanager
def override_mode(mode: str):
    """Force the sentinel mode for scenarios built inside the context.

    Outranks the environment variable; used by ``repro replay
    --strict`` and the strict-mode test batteries. Only affects the
    current process (pool workers inherit the environment variable
    instead).
    """
    global _MODE_OVERRIDE
    previous = _MODE_OVERRIDE
    _MODE_OVERRIDE = _validate_mode(mode)
    try:
        yield
    finally:
        _MODE_OVERRIDE = previous


class InvariantSentinel:
    """Cadence-sampled conservation/causality/sanity checker.

    Build one per scenario, register the live components, then
    :meth:`attach` it to the simulator; the engine run loop calls
    :meth:`check` every ``cadence`` executed events and once at the end
    of each ``run``. All registration methods are no-ops in ``off``
    mode, so construction is safe unconditionally.
    """

    def __init__(self, mode: Optional[str] = None,
                 cadence: int = DEFAULT_CADENCE) -> None:
        self.mode = resolve_mode(mode)
        if cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {cadence}")
        self.cadence = cadence
        #: Violation records (dicts with kind/message/sim_time); strict
        #: mode raises on the first one, warn mode accumulates.
        self.violations: List[dict] = []
        self.checks_run = 0
        self._senders: List[object] = []
        self._receivers: List[object] = []
        self._queues: List[object] = []
        self._elements: List[object] = []
        self._flow_recorders: List[object] = []
        self._queue_recorders: List[object] = []
        #: Scan cursors (index of first unscanned sample) by recorder
        #: registration index, so a deep-copied scenario can check.
        self._flow_cursors: List[Dict[str, int]] = []
        self._queue_cursors: List[Dict[str, int]] = []
        self._last_now = 0.0
        self._last_highest_acked: List[int] = []
        self._warned_sites: set = set()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.mode != "off"

    def register_flow(self, sender, receiver=None, recorder=None) -> None:
        """Register one flow's live endpoints and (optionally) recorder."""
        if not self.active:
            return
        self._senders.append(sender)
        self._last_highest_acked.append(-1)
        if receiver is not None:
            self._receivers.append(receiver)
        if recorder is not None:
            self._flow_recorders.append(recorder)
            self._flow_cursors.append({})

    def register_queue(self, queue, recorder=None) -> None:
        if not self.active:
            return
        self._queues.append(queue)
        if recorder is not None:
            self._queue_recorders.append(recorder)
            self._queue_cursors.append({})

    def register_element(self, element) -> None:
        """Register a path element that owns drop/duplicate counters."""
        if not self.active:
            return
        self._elements.append(element)

    def attach(self, sim) -> "InvariantSentinel":
        """Install this sentinel on ``sim`` (no-op in off mode)."""
        if self.active:
            sim.sentinel = self
        return self

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------

    def trace_tail(self, tail: int = TRACE_TAIL) -> dict:
        """Last ``tail`` recorded samples per registered recorder."""
        flows = []
        for recorder in self._flow_recorders:
            flows.append({
                "sample_times": list(recorder.sample_times[-tail:]),
                "cwnd_values": list(recorder.cwnd_values[-tail:]),
                "delivered_values": list(recorder.delivered_values[-tail:]),
                "rtt_times": list(recorder.rtt_times[-tail:]),
                "rtt_values": list(recorder.rtt_values[-tail:]),
            })
        queues = []
        for recorder in self._queue_recorders:
            queues.append({
                "sample_times": list(recorder.sample_times[-tail:]),
                "backlog_values": list(recorder.backlog_values[-tail:]),
            })
        return {"flows": flows, "queues": queues}

    def _fail(self, kind: str, site: str, message: str,
              sim_time: float) -> None:
        record = {"kind": kind, "site": site, "message": message,
                  "sim_time": sim_time}
        if len(self.violations) < _MAX_RECORDED:
            self.violations.append(record)
        if self.mode == "strict":
            details = dict(record)
            details["trace_tail"] = self.trace_tail()
            raise InvariantViolation(
                f"{kind} invariant violated at t={sim_time:.6f}s "
                f"[{site}]: {message}",
                kind=kind, sim_time=sim_time, details=details)
        if site not in self._warned_sites:
            self._warned_sites.add(site)
            warnings.warn(
                f"{kind} invariant violated at t={sim_time:.6f}s "
                f"[{site}]: {message}", InvariantWarning, stacklevel=3)

    # ------------------------------------------------------------------
    # The check battery
    # ------------------------------------------------------------------

    def check(self, sim) -> None:
        """Run the full invariant battery against the registered objects."""
        now = sim.now
        self.checks_run += 1

        # -- causality: the clock never steps backwards ----------------
        if now < self._last_now - _EPS:
            self._fail("causality", "engine.clock",
                       f"clock moved backwards: {self._last_now} -> {now}",
                       now)
        self._last_now = now

        # -- per-flow checks -------------------------------------------
        sent_total = 0
        for index, sender in enumerate(self._senders):
            sent_total += sender.sent_packets
            for kind, site, message in sender.invariant_errors():
                self._fail(kind, f"sender[{index}].{site}", message, now)
            cca = sender.cca
            cwnd = cca.cwnd_bytes
            # The CCA contract allows cwnd == inf for purely rate-based
            # schemes (see repro.ccas.base); NaN or <= 0 never is.
            if not (cwnd > 0.0):
                self._fail("sanity", f"sender[{index}].cwnd",
                           f"cwnd_bytes must be positive, got {cwnd!r}",
                           now)
            pacing = cca.pacing_rate
            if pacing is not None and (
                    pacing < 0.0 or math.isinf(pacing)
                    or pacing != pacing):
                self._fail("sanity", f"sender[{index}].pacing",
                           f"pacing_rate must be >= 0 and finite, "
                           f"got {pacing!r}", now)
            fresh = cca.outputs()
            if not all(a == b or (a != a and b != b)
                       for a, b in zip((cwnd, pacing), fresh)):
                self._fail("sanity", f"sender[{index}].stale_outputs",
                           f"published {(cwnd, pacing)!r}, state gives "
                           f"{fresh!r}", now)
            acked = sender.highest_acked
            if acked < self._last_highest_acked[index]:
                self._fail("causality", f"sender[{index}].highest_acked",
                           f"ACK sequence regressed: "
                           f"{self._last_highest_acked[index]} -> {acked}",
                           now)
            self._last_highest_acked[index] = acked
            if acked >= sender.next_seq:
                self._fail("causality", f"sender[{index}].acked_unsent",
                           f"acked seq {acked} was never sent "
                           f"(next_seq={sender.next_seq})", now)

        # -- conservation: sent + duplicated >= received + dropped -----
        received_total = 0
        for index, receiver in enumerate(self._receivers):
            received_total += receiver.received_packets
            for kind, site, message in receiver.invariant_errors():
                self._fail(kind, f"receiver[{index}].{site}", message, now)
        dropped_total = 0
        duplicated_total = 0
        for element in self._elements:
            dropped_total += getattr(element, "dropped", 0)
            duplicated_total += getattr(element, "duplicated", 0)
        for queue in self._queues:
            dropped_total += queue.drops
        if received_total + dropped_total > sent_total + duplicated_total:
            self._fail(
                "conservation", "scenario.packet_balance",
                f"received({received_total}) + dropped({dropped_total}) "
                f"> sent({sent_total}) + duplicated({duplicated_total}): "
                f"packets appeared from nowhere", now)

        # -- queues ----------------------------------------------------
        for index, queue in enumerate(self._queues):
            for kind, site, message in queue.invariant_errors():
                self._fail(kind, f"queue[{index}].{site}", message, now)

        # -- traces: incremental NaN/Inf + monotonicity scans ----------
        for index, (recorder, cursors) in enumerate(
                zip(self._flow_recorders, self._flow_cursors)):
            for kind, site, message in recorder.scan_invariants(
                    cursors, now):
                self._fail(kind, f"trace[{index}].{site}", message, now)
        for index, (recorder, cursors) in enumerate(
                zip(self._queue_recorders, self._queue_cursors)):
            for kind, site, message in recorder.scan_invariants(
                    cursors, now):
                self._fail(kind, f"queue_trace[{index}].{site}", message,
                           now)
