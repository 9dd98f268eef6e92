"""Discrete-event simulation engine.

A minimal event loop built on :mod:`heapq`. Components schedule
callbacks at absolute times; the :class:`Simulator` executes them in
time order (ties broken by scheduling order, so the simulation is fully
deterministic).

The engine is deliberately tiny: everything network-specific lives in the
other modules of :mod:`repro.sim`, which compose by passing each other
packets through ``receive(packet, now)`` calls and scheduling future work
through the simulator.

Design notes (see docs/PERFORMANCE.md):

* Heap entries are ``(time, seq, callback, args)`` tuples. ``seq`` is
  unique, so tuple comparison never reaches the callback and every
  sift comparison runs at C speed.
* Work nobody cancels is *posted* (:meth:`Simulator.post`,
  :meth:`Simulator.post_at`): the heap entry is the whole record and no
  handle is allocated. A handle nobody keeps is a ``post``.
* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  cancellable :class:`Event`, queued as ``(time, seq, event, None)``.
  ``cancel()`` on it can only ever affect that one event, before or
  after it fired.
* :meth:`Simulator.rearm` re-aims an :class:`Event` with the firing
  order of ``cancel()`` followed by ``schedule_at``: it takes its ``seq``
  at re-arm time. A pending entry due no later than the new time is not
  pushed again; it is re-examined when it pops. A timer re-aimed at the
  same time on every ACK (the sender's pacing wakeup) costs no heap push.
* There is one dispatch loop, in :meth:`Simulator.run`. The watchdog
  budgets and the invariant sentinel are ``is not None`` tests inside
  it, and :meth:`Simulator.run_all` is ``run`` to an infinite horizon.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, List, Optional, Tuple

from ..errors import BudgetExceededError, SimulationError

#: How many heap pops between wall-clock watchdog checks.
#: ``time.monotonic`` is cheap but not free; checking every event would
#: cost a few percent on the hot loop for no added safety. Cancelled
#: pops count toward the cadence too — a burst of lazily-deleted events
#: takes real time but executes nothing, and must not starve the check.
_WALL_CHECK_INTERVAL = 512


class Event:
    """A cancellable, re-armable callback.

    :meth:`Simulator.schedule` returns one already queued;
    ``Event(callback, args)`` builds an idle one for
    :meth:`Simulator.rearm` to aim. ``time`` and ``seq`` say when it
    fires next. Cancelled or re-armed events leave their old heap entry
    behind, skipped when popped (lazy deletion), which keeps both O(1).
    Cancelling an event that already fired does nothing.
    """

    # _queued / _queued_at: seq and time of the one heap entry that will
    # deliver this event (None: idle, fired or cancelled). Any other
    # entry naming it is stale.
    __slots__ = ("time", "seq", "callback", "args", "_queued", "_queued_at")

    def __init__(self, callback: Callable[..., None], args: tuple = (),
                 time: float = math.nan, seq: Optional[int] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._queued = seq
        self._queued_at = time

    def cancel(self) -> None:
        """Prevent this event's callback from running."""
        self._queued = None

    @property
    def pending(self) -> bool:
        """Whether the event is queued to fire."""
        return self._queued is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.pending else "idle"
        return f"Event(t={self.time:.6f}, {state}, cb={self.callback!r})"


class Simulator:
    """Deterministic discrete-event simulator clock and scheduler."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Any, Optional[tuple]]] = []
        self._seq: int = 0
        self._events_processed: int = 0
        #: Optional invariant sentinel (see repro.sim.invariants). When
        #: attached and active, :meth:`run` calls ``sentinel.check(self)``
        #: every ``sentinel.cadence`` executed events plus once per call
        #: — the sentinel never schedules events, so the event stream is
        #: unchanged.
        self.sentinel = None

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_processed

    def _due(self, time: float, delay: Optional[float] = None) -> float:
        """The scheduling rule, for what its inlined fast test rejects.

        Every scheduling call tests ``delay >= 0`` or ``time >= now``
        inline and comes here only when that fails (NaN fails both). A
        negative or NaN delay, a NaN time and a time more than 1e-12
        before ``now`` raise; a time within 1e-12 before ``now`` is
        ``now``.
        """
        now = self.now
        if delay is not None:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        if time >= now - 1e-12:
            return now
        raise SimulationError(
            f"cannot schedule event at t={time} before now={now}")

    def post_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> None:
        """Run ``callback(*args)`` at absolute ``time``; no handle."""
        if not time >= self.now:
            time = self._due(time)
        seq = self._seq
        heapq.heappush(self._heap, (time, seq, callback, args))
        self._seq = seq + 1

    def post(self, delay: float, callback: Callable[..., None],
             *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` >= 0; no handle."""
        time = self.now + delay
        if not delay >= 0:
            time = self._due(time, delay)
        seq = self._seq
        heapq.heappush(self._heap, (time, seq, callback, args))
        self._seq = seq + 1

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``; returns
        the cancellable :class:`Event`."""
        if not time >= self.now:
            time = self._due(time)
        seq = self._seq
        event = Event(callback, args, time, seq)
        heapq.heappush(self._heap, (time, seq, event, None))
        self._seq = seq + 1
        return event

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` >= 0; returns
        the cancellable :class:`Event`."""
        time = self.now + delay
        if not delay >= 0:
            time = self._due(time, delay)
        seq = self._seq
        event = Event(callback, args, time, seq)
        heapq.heappush(self._heap, (time, seq, event, None))
        self._seq = seq + 1
        return event

    def rearm(self, event: Event, time: float) -> None:
        """Aim ``event`` (pending, fired, cancelled or idle) at ``time``.

        Fires exactly where ``event.cancel(); schedule_at(time, ...)``
        would: the event takes the next ``seq`` now. A pending entry due
        at or before ``time`` stays as it is and is not pushed again;
        when it pops, :meth:`run` fires the event at once if nothing in
        the heap sorts before ``(time, seq)`` and ``time`` is within the
        horizon, and otherwise pushes it once more.
        """
        if not time >= self.now:
            time = self._due(time)
        seq = self._seq
        self._seq = seq + 1
        if event._queued is None or event._queued_at > time:
            heapq.heappush(self._heap, (time, seq, event, None))
            event._queued = seq
            event._queued_at = time
        event.time = time
        event.seq = seq

    def run(self, until: float, max_events: Optional[int] = None,
            wall_clock_budget: Optional[float] = None) -> None:
        """Run events in order until the clock reaches ``until``.

        The clock is advanced to exactly ``until`` at the end even if the
        event queue drains earlier, so periodic samplers see a full
        window; an infinite ``until`` drains the queue and leaves the
        clock at the last event.

        Watchdog budgets (both optional) guard against divergent runs:

        Args:
            max_events: abort with :class:`BudgetExceededError` after this
                many events are executed *within this call* (a livelocked
                component scheduling itself at zero delay never advances
                the clock, so a time horizon alone cannot stop it).
            wall_clock_budget: abort with :class:`BudgetExceededError`
                after this many real seconds (checked every
                ``_WALL_CHECK_INTERVAL`` heap pops — cancelled pops
                included, so a cancellation burst cannot defer the
                check).
        """
        heap = self._heap
        heappop = heapq.heappop
        events_at_entry = self._events_processed
        executed = events_at_entry
        wall_start = time.monotonic() if wall_clock_budget is not None \
            else 0.0
        since_check = 0
        sentinel = self.sentinel
        if sentinel is not None and not sentinel.active:
            sentinel = None
        sentinel_countdown = sentinel.cadence if sentinel is not None else 0
        while heap:
            entry = heap[0]
            if entry[0] > until:
                break
            heappop(heap)
            event_time, seq, callback, args = entry
            if wall_clock_budget is not None:
                since_check += 1
                if since_check >= _WALL_CHECK_INTERVAL:
                    since_check = 0
                    elapsed = time.monotonic() - wall_start
                    if elapsed > wall_clock_budget:
                        raise BudgetExceededError(
                            f"run exceeded wall-clock budget of "
                            f"{wall_clock_budget:.1f}s after "
                            f"{elapsed:.1f}s at t={self.now:.6f}s "
                            f"(horizon {until}s)",
                            kind="wall_clock", limit=wall_clock_budget,
                            value=elapsed, sim_time=self.now)
            if args is None:
                # An Event handle: only the entry it names still counts.
                event = callback
                if seq != event._queued:
                    continue        # cancelled, or re-armed earlier
                if seq != event.seq:
                    # Re-armed to a time no earlier than this entry's.
                    event_time = event.time
                    seq = event.seq
                    if event_time > until or (
                            heap and heap[0] < (event_time, seq)):
                        heapq.heappush(heap, (event_time, seq, event, None))
                        event._queued = seq
                        event._queued_at = event_time
                        continue
                event._queued = None
                callback = event.callback
                args = event.args
            self.now = event_time
            executed += 1
            self._events_processed = executed
            if args:
                callback(*args)
            else:
                callback()
            if sentinel is not None:
                sentinel_countdown -= 1
                if sentinel_countdown <= 0:
                    sentinel_countdown = sentinel.cadence
                    sentinel.check(self)
            if max_events is not None:
                within_call = executed - events_at_entry
                if within_call >= max_events:
                    raise BudgetExceededError(
                        f"run exceeded event budget of {max_events} "
                        f"events at t={self.now:.6f}s (horizon "
                        f"{until}s); likely a livelocked component",
                        kind="events", limit=max_events,
                        value=within_call, sim_time=self.now)
        if self.now < until < math.inf:
            self.now = until
        if sentinel is not None:
            # Short runs (< cadence events) still get one full battery.
            sentinel.check(self)

    def run_all(self, max_events: int = 50_000_000,
                wall_clock_budget: Optional[float] = None) -> None:
        """Run until the event queue is empty, under :meth:`run`'s
        watchdogs; the clock stops at the last event."""
        self.run(math.inf, max_events, wall_clock_budget)
