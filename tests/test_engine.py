"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.errors import BudgetExceededError, SimulationError
from repro.sim.engine import Event, Simulator

from .conftest import livelock

#: ``run`` and ``run_all`` are one loop: what holds for one entry point
#: must hold for the other.
ENTRY_POINTS = (lambda sim, **budgets: sim.run(1.0, **budgets),
                lambda sim, **budgets: sim.run_all(**budgets))


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(0.3, order.append, "c")
    sim.schedule(0.1, order.append, "a")
    sim.schedule(0.2, order.append, "b")
    sim.run_all()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_insertion_order(sim):
    order = []
    sim.schedule(0.5, order.append, 1)
    sim.schedule(0.5, order.append, 2)
    sim.schedule(0.5, order.append, 3)
    sim.run_all()
    assert order == [1, 2, 3]


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.schedule(1.25, lambda: seen.append(sim.now))
    sim.run_all()
    assert seen == [1.25]
    assert sim.now == 1.25


def test_run_until_stops_before_later_events(sim):
    order = []
    sim.schedule(1.0, order.append, "early")
    sim.schedule(5.0, order.append, "late")
    sim.run(2.0)
    assert order == ["early"]
    assert sim.now == 2.0  # clock advanced to the horizon


def test_run_advances_clock_even_with_no_events(sim):
    sim.run(3.0)
    assert sim.now == 3.0


def test_cancelled_event_does_not_fire(sim):
    order = []
    event = sim.schedule(0.1, order.append, "x")
    sim.schedule(0.2, order.append, "y")
    event.cancel()
    sim.run_all()
    assert order == ["y"]


def test_cancel_before_firing_suppresses_only_that_event(sim):
    fired = []
    sim.schedule(0.1, fired.append, "a")
    doomed = sim.schedule(0.5, fired.append, "b")
    sim.run(0.2)
    doomed.cancel()
    sim.schedule(0.1, fired.append, "c")
    sim.run(1.0)
    assert fired == ["a", "c"]


def test_stale_handle_cancel_suppresses_nothing(sim):
    fired = []
    stale = sim.schedule(0.1, fired.append, "a")
    sim.run(0.2)  # "a" fired: the handle is spent
    sim.schedule(0.1, fired.append, "b")
    stale.cancel()
    sim.run(1.0)
    assert fired == ["a", "b"]


def at_calls(sim):
    """The scheduling calls that take an absolute time."""
    return (sim.schedule_at, sim.post_at,
            lambda when, callback: sim.rearm(Event(callback), when))


def test_schedule_in_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run_all()
    for call in at_calls(sim):
        for when in (0.5, float("nan")):
            with pytest.raises(SimulationError):
                call(when, lambda: None)
    # Round-off just below the clock means the clock, for every call.
    fired = []
    for call in at_calls(sim):
        call(1.0 - 5e-13, lambda: fired.append(sim.now))
    sim.run_all()
    assert fired == [1.0, 1.0, 1.0]


def test_negative_delay_raises(sim):
    for call in (sim.schedule, sim.post):
        for delay in (-0.1, -1e-13, float("nan")):
            with pytest.raises(SimulationError):
                call(delay, lambda: None)


def test_events_can_schedule_events(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(0.5, order.append, "second")

    sim.schedule(1.0, first)
    sim.run_all()
    assert order == ["first", "second"]
    assert sim.now == 1.5


def test_events_processed_counter(sim):
    for i in range(5):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run_all()
    assert sim.events_processed == 5


def test_events_processed_excludes_cancelled(sim):
    for i in range(4):
        sim.schedule(0.1 * (i + 1), lambda: None)
    for i in range(6):
        sim.schedule(0.05 * (i + 1), lambda: None).cancel()
    sim.run_all()
    assert sim.events_processed == 4


def test_runaway_guard(sim):
    livelock(sim)
    with pytest.raises(SimulationError):
        sim.run_all(max_events=1000)


def test_schedule_at_now_is_allowed(sim):
    fired = []
    sim.schedule(1.0, lambda: sim.schedule_at(sim.now, fired.append, 1))
    sim.run_all()
    assert fired == [1]


def test_run_all_wall_clock_budget(sim):
    livelock(sim)
    with pytest.raises(BudgetExceededError) as excinfo:
        sim.run_all(wall_clock_budget=0.02)
    assert excinfo.value.kind == "wall_clock"


def test_run_all_event_budget_kind():
    for enter in ENTRY_POINTS:
        sim = Simulator()
        livelock(sim)
        with pytest.raises(BudgetExceededError) as excinfo:
            enter(sim, max_events=3)
        assert excinfo.value.kind == "events"
        # The budget is the number of events executed, not one more.
        assert sim.events_processed == excinfo.value.value == 3


def test_wall_clock_check_counts_cancelled_pops():
    """Cancelled pops must advance the watchdog cadence.

    The wall-clock check runs every _WALL_CHECK_INTERVAL heap pops. If
    only *executed* events counted, a burst of lazily-deleted entries
    (cancelled events, or events re-armed to an earlier time) could
    starve the check and let a run blow far past its budget before the
    first look at the clock.
    """
    from repro.sim.engine import _WALL_CHECK_INTERVAL

    for enter in ENTRY_POINTS:
        sim = Simulator()
        for _ in range(2 * _WALL_CHECK_INTERVAL):
            sim.schedule(0.1, lambda: None).cancel()
        sim.schedule(0.2, lambda: None)
        # A zero budget is exceeded at the very first check; with fewer
        # executed events than the interval, that check only happens if
        # cancelled pops count toward the cadence.
        with pytest.raises(BudgetExceededError) as excinfo:
            enter(sim, wall_clock_budget=0.0)
        assert excinfo.value.kind == "wall_clock"


def test_run_all_wall_clock_budget_unset_by_default(sim):
    for i in range(5):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim.run_all()  # no budgets: drains the queue and returns
    assert sim.events_processed == 5


# ----------------------------------------------------------------------
# rearm: the firing order of cancel() + schedule_at, without the push
# ----------------------------------------------------------------------


class TimerProgram:
    """A seeded random program of posts, schedules, cancels and re-arms.

    Run once with ``Simulator.rearm`` and once with the reference
    ``event.cancel(); sim.schedule_at(...)``, it must fire the same
    callbacks at the same times in the same order. Every time is on a
    coarse grid, so equal-time ties are everywhere; the program draws
    its next actions inside the callbacks, so any divergence in firing
    order also shows up as a divergent trace.
    """

    TIMERS = 4
    GRID = 0.25

    def __init__(self, seed, use_rearm):
        self.rng = random.Random(seed)
        self.use_rearm = use_rearm
        self.sim = Simulator()
        self.timers = [None] * self.TIMERS
        self.cancelled = [False] * self.TIMERS
        self.handles = []           # kept schedule() handles
        self.trace = []
        self.actions_left = 80
        self.kinds = dict.fromkeys(
            ("idle", "kept", "earlier", "fired", "cancelled"), 0)

    def when(self):
        return self.sim.now + self.rng.randrange(6) * self.GRID

    def arm(self, k, time):
        timer = self.timers[k]
        if timer is None:
            kind = "idle"
        elif self.cancelled[k]:
            kind = "cancelled"
        elif not timer.pending:
            kind = "fired"
        else:
            kind = "kept" if time >= timer.time else "earlier"
        self.kinds[kind] += 1
        self.cancelled[k] = False
        if self.use_rearm and timer is None and k % 2 == 0:
            timer = self.timers[k] = Event(self.fire, ("timer", k))
        if self.use_rearm and timer is not None:
            self.sim.rearm(timer, time)
            return
        if timer is not None:
            timer.cancel()
        self.timers[k] = self.sim.schedule_at(time, self.fire, "timer", k)

    def act(self):
        rng, sim = self.rng, self.sim
        for _ in range(rng.randrange(4)):
            if self.actions_left <= 0:
                return
            self.actions_left -= 1
            roll = rng.random()
            label = ("act", self.actions_left)
            if roll < 0.15:
                sim.post_at(self.when(), self.fire, *label)
            elif roll < 0.25:
                sim.post(self.when() - sim.now, self.fire, *label)
            elif roll < 0.35:
                self.handles.append(
                    sim.schedule(self.when() - sim.now, self.fire, *label))
            elif roll < 0.4 and self.handles:
                self.handles.pop(rng.randrange(len(self.handles))).cancel()
            elif roll < 0.9:
                self.arm(rng.randrange(self.TIMERS), self.when())
            else:
                k = rng.randrange(self.TIMERS)
                if self.timers[k] is not None:
                    self.timers[k].cancel()
                    self.cancelled[k] = True

    def fire(self, *label):
        self.trace.append((self.sim.now, label))
        self.act()

    def play(self):
        sim = self.sim
        while self.actions_left > 0:
            self.act()
        sim.post_at(0.0, self.act)     # reach the rest from inside a run
        self.actions_left = 80
        horizon = 0.0
        while horizon < 30.0:
            horizon += self.rng.randrange(1, 4) * self.GRID
            try:
                sim.run(horizon, max_events=self.rng.randrange(1, 12))
            except BudgetExceededError as exc:
                self.trace.append(("budget", exc.value, sim.now))
            self.trace.append(("run", horizon, sim.now,
                               sim.events_processed))
        sim.run_all()
        self.trace.append(("drained", sim.now, sim.events_processed))
        return self.trace


def test_rearm_fires_like_cancel_and_schedule_at():
    totals = {}
    for seed in range(400):
        with_rearm = TimerProgram(seed, use_rearm=True)
        reference = TimerProgram(seed, use_rearm=False)
        assert with_rearm.play() == reference.play(), f"seed {seed}"
        for kind, count in with_rearm.kinds.items():
            totals[kind] = totals.get(kind, 0) + count
    # The programs must reach every case rearm distinguishes.
    assert min(totals.values()) > 1000, totals


def test_rearm_at_an_unchanged_time_pushes_nothing(sim):
    fired = []
    timer = Event(fired.append, ("t",))
    for _ in range(100):
        sim.rearm(timer, 0.5)
    assert len(sim._heap) == 1
    sim.run_all()
    assert fired == ["t"] and not timer.pending
