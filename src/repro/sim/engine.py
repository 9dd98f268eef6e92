"""Discrete-event simulation engine.

A minimal event loop built on :mod:`heapq`. Components schedule
callbacks at absolute times; the :class:`Simulator` executes them in
time order (ties broken by insertion order, so the simulation is fully
deterministic).

The engine is deliberately tiny: everything network-specific lives in the
other modules of :mod:`repro.sim`, which compose by passing each other
packets through ``receive(packet, now)`` calls and scheduling future work
through the simulator.

Design notes (see docs/PERFORMANCE.md):

* Heap entries are ``(time, seq, event)`` tuples, not Event objects.
  ``seq`` is unique, so tuple comparison never reaches the Event and
  every sift comparison runs at C speed.
* Every ``schedule`` call allocates one plain :class:`Event`, owned by
  whoever holds the returned handle: ``cancel()`` on it can only ever
  affect that one event, before or after it fired.
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
    """A scheduled callback. Returned by :meth:`Simulator.schedule`.

    Events may be cancelled; cancelled events stay in the heap but are
    skipped when popped (lazy deletion), which keeps cancellation O(1).
    Cancelling an event that already fired does nothing.
    """

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(self, time: float, callback: Callable[..., None],
                 args: tuple) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent this event's callback from running."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state}, cb={self.callback!r})"


class Simulator:
    """Deterministic discrete-event simulator clock and scheduler."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
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

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``.

        ``time`` must not be in the past (it may equal ``now``) and must
        not be NaN.
        """
        now = self.now
        if not time >= now:
            if not time >= now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at t={time} before now={now}")
            time = now
        seq = self._seq
        event = Event(time, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        self._seq = seq + 1
        return event

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` after a relative ``delay`` >= 0."""
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        time = self.now + delay
        seq = self._seq
        event = Event(time, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        self._seq = seq + 1
        return event

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
            event_time = entry[0]
            if event_time > until:
                break
            heappop(heap)
            event = entry[2]
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
            if event.cancelled:
                continue
            self.now = event_time
            executed += 1
            self._events_processed = executed
            args = event.args
            if args:
                event.callback(*args)
            else:
                event.callback()
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
