"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import BudgetExceededError, SimulationError
from repro.sim.engine import Simulator

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


def test_schedule_in_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run_all()
    for when in (0.5, float("nan")):
        with pytest.raises(SimulationError):
            sim.schedule_at(when, lambda: None)


def test_negative_delay_raises(sim):
    for delay in (-0.1, float("nan")):
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)


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
    only *executed* events counted, a burst of cancellations (pacing
    timer churn produces exactly that) could starve the check and let a
    run blow far past its budget before the first look at the clock.
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
