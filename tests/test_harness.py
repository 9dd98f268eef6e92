"""Tests for the resilient experiment harness and engine watchdog."""

import dataclasses
import json

import pytest

from repro import units
from repro.analysis.backends import execute_point
from repro.analysis.harness import (RECOVERABLE, ResilientSweep, RunBudget,
                                    RunFailure, describe_failures)
from repro.analysis.sweep import sweep_rate_delay
from repro.errors import (BudgetExceededError, ConfigurationError,
                          SimulationError)
from repro.sim.engine import Simulator
from repro.spec import CCASpec, single_flow_scenario
from repro.store import ResultStore

from .conftest import livelock


class TestEngineWatchdog:
    def test_event_budget_stops_livelock(self):
        sim = Simulator()
        livelock(sim)
        with pytest.raises(BudgetExceededError) as info:
            sim.run(10.0, max_events=5000)
        assert info.value.kind == "events"
        assert info.value.value >= 5000
        assert info.value.sim_time == 0.0

    def test_wall_clock_budget_stops_livelock(self):
        sim = Simulator()
        livelock(sim)
        with pytest.raises(BudgetExceededError) as info:
            sim.run(10.0, wall_clock_budget=1e-9)
        assert info.value.kind == "wall_clock"

    def test_budget_error_is_a_simulation_error(self):
        assert issubclass(BudgetExceededError, SimulationError)

    def test_healthy_run_unaffected_by_budgets(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        sim.run(2.0, max_events=1000, wall_clock_budget=60.0)
        assert len(fired) == 10
        assert sim.now == 2.0

    def test_budget_counts_per_call_not_lifetime(self):
        sim = Simulator()
        for i in range(60):
            sim.schedule(0.01 * (i + 1), lambda: None)
        sim.run(0.5, max_events=100)   # executes 50 events
        for i in range(60):
            sim.schedule(0.01 * (i + 1), lambda: None)
        # 10 leftovers + 60 new = 70 events: under the per-call cap even
        # though the lifetime total (120) exceeds it.
        sim.run(2.0, max_events=100)
        assert sim.events_processed == 120

    def test_scenario_run_forwards_budgets(self):
        spec = single_flow_scenario(CCASpec("vegas"), rate=units.mbps(12),
                                    rm=units.ms(40))
        with pytest.raises(BudgetExceededError):
            spec.run(duration=5.0, max_events=50)


class TestRunBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunBudget(max_events=0)
        with pytest.raises(ValueError):
            RunBudget(wall_clock=-1.0)
        # The two watchdog limits are the whole budget.
        assert [f.name for f in dataclasses.fields(RunBudget)] == \
            ["max_events", "wall_clock"]


class TestRunWithRetry:
    """:func:`execute_point` calls the worker once, under the caller's
    budget: a run is a pure function of its params, so a re-run would
    recompute the same failure."""

    def test_succeeds_first_try(self):
        calls = []
        outcome = execute_point(
            lambda params, budget: calls.append(budget) or 42,
            "k", {}, RunBudget())
        assert outcome.result == 42
        assert len(calls) == 1

    def test_failing_worker_runs_once_under_the_stated_budget(self):
        for exc in (BudgetExceededError("too slow", kind="events",
                                        limit=1, value=1),
                    ConfigurationError("no budget can change this")):
            budgets = []

            def always_fails(params, budget):
                budgets.append(budget)
                raise exc

            failure = execute_point(always_fails, "k", {},
                                    RunBudget(max_events=100)).failure
            assert failure.reason == type(exc).__name__
            assert failure.kind == "error" and failure.attempts == 1
            assert [b.max_events for b in budgets] == [100]

    def test_exhausted_retries_raise_last_error(self):
        calls = []

        def always_fails(params, budget):
            calls.append(1)
            raise SimulationError(f"boom {len(calls)}")

        failure = execute_point(always_fails, "k", {}, RunBudget()).failure
        assert failure.reason == "SimulationError"
        assert failure.message == "boom 1"
        assert failure.attempts == len(calls) == 1

    def test_programming_errors_propagate_immediately(self):
        calls = []

        def broken(params, budget):
            calls.append(1)
            raise TypeError("bug in experiment script")

        failure = execute_point(broken, "k", {}, RunBudget()).failure
        assert failure.kind == "internal"
        assert failure.reason == "TypeError"
        assert failure.attempts == len(calls) == 1


def scenario_point(params, budget):
    """A real (tiny) packet-simulation grid point."""
    result = single_flow_scenario(
        CCASpec("vegas"), rate=units.mbps(params["rate_mbps"]),
        rm=units.ms(40),
    ).run(duration=2.0, max_events=budget.max_events,
          wall_clock_budget=budget.wall_clock)
    return {"throughput": result.stats[0].throughput}


def livelocked_point(params, budget):
    """A deliberately divergent grid point: zero-delay event storm."""
    sim = Simulator()
    livelock(sim)
    sim.run(10.0, max_events=budget.max_events or 10_000)
    return {"unreachable": True}


def dispatch_point(params, budget):
    if params.get("livelock"):
        return livelocked_point(params, budget)
    return scenario_point(params, budget)


#: Params of every :func:`spied_point` call. A module-level worker keeps
#: one task name, and so one cache key, from one sweep to the next.
SPIED = []


def spied_point(params, budget):
    SPIED.append(params)
    return dispatch_point(params, budget)


@pytest.fixture
def calls():
    SPIED.clear()
    yield SPIED
    SPIED.clear()


class TestResilientSweep:
    def test_failed_point_recorded_not_fatal(self, tmp_path, calls):
        """Acceptance: a grid containing one livelocked configuration
        completes, records that point as a RunFailure with a
        machine-readable reason, keeps completed results in the store
        beside the checkpoint, and resumes on re-invocation."""
        checkpoint = str(tmp_path / "sweep.json")
        grid = [("good-2", {"rate_mbps": 2.0}),
                ("livelocked", {"livelock": True}),
                ("good-10", {"rate_mbps": 10.0})]
        budget = RunBudget(max_events=200_000, wall_clock=30.0)

        sweep = ResilientSweep(spied_point, budget=budget,
                               checkpoint_path=checkpoint)
        outcome = sweep.run(grid)

        # The sweep completed despite the divergent point.
        assert set(outcome.completed) == {"good-2", "good-10"}
        assert outcome.completed["good-2"]["throughput"] > 0
        # The failure is structured and machine-readable.
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.key == "livelocked"
        assert failure.reason == "BudgetExceededError"
        assert failure.attempts == 1
        assert "budget of 200000 events" in failure.message
        assert failure.params == {"livelock": True}

        # The checkpoint holds the failure only; the results are in
        # the store beside it.
        with open(checkpoint) as fh:
            data = json.load(fh)
        assert data == {"version": 3, "failures": [failure.to_json()]}
        assert ResultStore(checkpoint + ".store").stats().entries == 2

        # Re-invocation resumes: nothing is re-run.
        calls.clear()
        resumed = ResilientSweep(spied_point, budget=budget,
                                 checkpoint_path=checkpoint).run(grid)
        assert calls == []
        assert (resumed.hits, resumed.misses) == (2, 0)
        assert resumed.completed == outcome.completed
        assert resumed.failures == outcome.failures

    def test_interrupted_sweep_resumes_mid_grid(self, tmp_path, calls):
        checkpoint = str(tmp_path / "sweep.json")
        full_grid = [(f"p{i}", {"rate_mbps": 2.0 + i}) for i in range(4)]
        budget = RunBudget(max_events=500_000)

        # "Interrupted" after the first two points.
        ResilientSweep(spied_point, budget=budget,
                       checkpoint_path=checkpoint).run(full_grid[:2])

        calls.clear()
        outcome = ResilientSweep(spied_point, budget=budget,
                                 checkpoint_path=checkpoint).run(full_grid)
        assert calls == [params for _, params in full_grid[2:]]
        assert (outcome.hits, outcome.misses) == (2, 2)
        assert set(outcome.completed) == {"p0", "p1", "p2", "p3"}

    def test_changed_params_under_the_same_keys_resimulate(self, tmp_path,
                                                           calls):
        """A checkpoint serves nothing by key: the same point keys with
        another seed are another experiment, and they run."""
        checkpoint = str(tmp_path / "sweep.json")
        budget = RunBudget(max_events=500_000)
        grid = [(f"p{i}", {"rate_mbps": 2.0 + i}) for i in range(2)]
        ResilientSweep(spied_point, budget=budget,
                       checkpoint_path=checkpoint).run(grid)
        reseeded = [(key, {**params, "seed": 5}) for key, params in grid]
        calls.clear()
        outcome = ResilientSweep(spied_point, budget=budget,
                                 checkpoint_path=checkpoint).run(reseeded)
        assert calls == [params for _, params in reseeded]
        assert (outcome.hits, outcome.misses) == (0, 2)

    def test_resumed_sweep_equals_a_fresh_one_for_another_seed(
            self, tmp_path):
        checkpoint = str(tmp_path / "curve.json")
        kwargs = dict(rm=units.ms(40), duration=3.0)
        sweep_rate_delay("bbr", [2.0], seed=0, checkpoint_path=checkpoint,
                         **kwargs)
        resumed = sweep_rate_delay("bbr", [2.0], seed=5,
                                   checkpoint_path=checkpoint, **kwargs)
        fresh = sweep_rate_delay("bbr", [2.0], seed=5, **kwargs)
        assert fresh.to_json() != sweep_rate_delay(
            "bbr", [2.0], seed=0, **kwargs).to_json()
        assert resumed.to_json() == fresh.to_json()

    def test_retry_failures_on_resume(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.json")
        grid = [("flaky", {"rate_mbps": 2.0})]
        first = ResilientSweep(dispatch_point,
                               budget=RunBudget(max_events=100),
                               checkpoint_path=checkpoint).run(grid)
        assert first.failures

        # A budget is not part of a point: without the flag the
        # failure is remembered under the raised one, with it, re-run.
        roomy = RunBudget(max_events=500_000)
        kept = ResilientSweep(dispatch_point, budget=roomy,
                              checkpoint_path=checkpoint).run(grid)
        assert kept.failures == first.failures and not kept.completed
        retried = ResilientSweep(
            dispatch_point, budget=roomy, checkpoint_path=checkpoint,
            retry_failures_on_resume=True).run(grid)
        assert not retried.failures
        assert "flaky" in retried.completed
        with open(checkpoint) as fh:
            assert json.load(fh) == {"version": 3, "failures": []}

    def test_failure_record_skips_only_its_own_params(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.json")
        budget = RunBudget(max_events=10_000)
        ResilientSweep(dispatch_point, budget=budget,
                       checkpoint_path=checkpoint).run(
                           [("flaky", {"livelock": True})])
        # Same key, other params: the record is another point's.
        outcome = ResilientSweep(dispatch_point, budget=budget,
                                 checkpoint_path=checkpoint).run(
                                     [("flaky", {"rate_mbps": 2.0})])
        assert not outcome.failures
        assert "flaky" in outcome.completed

    def test_corrupt_checkpoint_tolerated(self, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        checkpoint.write_text("{not json!")
        outcome = ResilientSweep(
            scenario_point, budget=RunBudget(),
            checkpoint_path=str(checkpoint)).run(
                [("p0", {"rate_mbps": 2.0})])
        assert "p0" in outcome.completed

    def test_duplicate_keys_rejected(self):
        sweep = ResilientSweep(scenario_point)
        with pytest.raises(ValueError):
            sweep.run([("a", {}), ("a", {})])

    def test_no_checkpoint_path_runs_in_memory(self):
        outcome = ResilientSweep(
            scenario_point, budget=RunBudget()).run(
                [("p0", {"rate_mbps": 2.0})])
        assert "p0" in outcome.completed

    def test_progress_callback_sees_status(self):
        events = []
        ResilientSweep(dispatch_point,
                       budget=RunBudget(max_events=10_000),
                       progress=lambda key, status:
                       events.append((key, status))).run(
                           [("bad", {"livelock": True})])
        assert ("bad", "run") in events
        assert any(status.startswith("failed") for _, status in events)


class TestRunFailure:
    def test_json_roundtrip(self):
        failure = RunFailure(key="k", reason="BudgetExceededError",
                             message="too many events", attempts=2,
                             elapsed=1.25, params={"rate": 2.0})
        assert RunFailure.from_json(failure.to_json()) == failure

    def test_describe_failures_table(self):
        text = describe_failures([
            RunFailure(key="p1", reason="BudgetExceededError",
                       message="x", attempts=1, elapsed=0.1)])
        assert "p1" in text
        assert "BudgetExceededError" in text
        assert describe_failures([]) == "no failures"


class TestSweepRateDelayResilience:
    def test_failures_recorded_on_curve(self):
        # An absurdly small event budget fails every point...
        curve = sweep_rate_delay(
            "vegas", [2.0, 10.0], rm=units.ms(40), duration=3.0,
            budget=RunBudget(max_events=20))
        assert not curve.points
        assert len(curve.failures) == 2
        # ...and each is recorded under the budget the caller stated.
        assert all(f.reason == "BudgetExceededError" and f.attempts == 1
                   and "budget of 20 events" in f.message
                   for f in curve.failures)

    def test_checkpoint_resume(self, tmp_path):
        checkpoint = str(tmp_path / "curve.json")
        kwargs = dict(rm=units.ms(40), duration=3.0,
                      checkpoint_path=checkpoint)
        first = sweep_rate_delay("vegas", [2.0], **kwargs)
        assert len(first.points) == 1
        # Extending the grid only runs the new point; the old one is
        # loaded from the checkpoint with identical values.
        second = sweep_rate_delay("vegas", [2.0, 10.0], **kwargs)
        assert len(second.points) == 2
        assert second.points[0] == first.points[0]


class TestRecoverableSet:
    def test_repro_errors_are_recoverable(self):
        from repro.errors import ReproError
        assert issubclass(BudgetExceededError, RECOVERABLE[0]) or any(
            issubclass(BudgetExceededError, r) for r in RECOVERABLE)
        assert any(issubclass(ReproError, r) for r in RECOVERABLE)

    def test_overflow_is_recoverable(self):
        def overflows(params, budget):
            raise OverflowError("math range error")

        failure = execute_point(overflows, "k", {},
                                RunBudget()).failure
        assert failure.kind == "error"
        assert failure.reason == "OverflowError"


class TestMaxFailures:
    """The fail-fast threshold: abort a sweep drowning in failures."""

    BUDGET = RunBudget(max_events=50_000, wall_clock=30.0)

    def grid(self, *behaviors):
        return [(f"p{i}", {"rate_mbps": 2.0, **behavior})
                for i, behavior in enumerate(behaviors)]

    def test_abort_once_threshold_exceeded(self, tmp_path):
        from repro.errors import SweepAbortedError
        checkpoint = str(tmp_path / "ck.json")
        grid = self.grid({}, {"livelock": True}, {"livelock": True},
                         {})
        sweep = ResilientSweep(dispatch_point, budget=self.BUDGET,
                               checkpoint_path=checkpoint,
                               max_failures=1)
        with pytest.raises(SweepAbortedError, match="max_failures=1"):
            sweep.run(grid)
        # Both failure records and the completed prefix landed before
        # the raise and survive for a resume.
        with open(checkpoint) as fh:
            saved = json.load(fh)
        assert [f["key"] for f in saved["failures"]] == ["p1", "p2"]
        assert ResultStore(checkpoint + ".store").stats().entries == 1

    def test_abort_error_carries_failures(self):
        from repro.errors import SweepAbortedError
        sweep = ResilientSweep(dispatch_point, budget=self.BUDGET,
                               max_failures=0)
        with pytest.raises(SweepAbortedError) as info:
            sweep.run(self.grid({"livelock": True}, {}))
        assert [f.key for f in info.value.failures] == ["p0"]
        assert info.value.failures[0].reason == "BudgetExceededError"

    def test_default_never_aborts(self):
        outcome = ResilientSweep(dispatch_point, budget=self.BUDGET) \
            .run(self.grid({"livelock": True}, {}))
        assert [f.key for f in outcome.failures] == ["p0"]
        assert set(outcome.completed) == {"p1"}

    def test_threshold_equal_to_failures_does_not_abort(self):
        outcome = ResilientSweep(dispatch_point, budget=self.BUDGET,
                                 max_failures=1) \
            .run(self.grid({"livelock": True}, {}))
        assert len(outcome.failures) == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="max_failures"):
            ResilientSweep(dispatch_point, max_failures=-1)

    def test_resume_counts_checkpointed_failures(self, tmp_path, calls):
        from repro.errors import SweepAbortedError
        checkpoint = str(tmp_path / "ck.json")
        grid = self.grid({"livelock": True}, {"rate_mbps": 3.0})
        ResilientSweep(spied_point, budget=self.BUDGET,
                       checkpoint_path=checkpoint).run(grid[:1])
        # Resuming under a now-exceeded threshold aborts before
        # running anything.
        calls.clear()
        sweep = ResilientSweep(spied_point, budget=self.BUDGET,
                               checkpoint_path=checkpoint,
                               max_failures=0)
        with pytest.raises(SweepAbortedError):
            sweep.run(grid)
        assert calls == []

    def test_sweep_rate_delay_forwards_max_failures(self):
        from repro.errors import SweepAbortedError
        with pytest.raises(SweepAbortedError):
            sweep_rate_delay("vegas", [2.0, 10.0], rm=units.ms(40),
                             duration=5.0,
                             budget=RunBudget(max_events=200),
                             max_failures=0)
