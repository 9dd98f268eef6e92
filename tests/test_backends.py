"""Tests for pluggable execution backends (repro.analysis.backends).

The contract under test: a ProcessPoolBackend sweep returns exactly what
a SerialBackend sweep returns — same results, same failure records, same
checkpoints — just on more cores.
"""

import json
import os
import sys

import pytest

import repro.ccas
from repro import units
from repro.analysis.backends import (PointOutcome, ProcessPoolBackend,
                                     SerialBackend, execute_point,
                                     make_backend)
from repro.analysis.harness import ResilientSweep, RunBudget
from repro.analysis.sweep import sweep_rate_delay
from repro.errors import ConfigurationError, SimulationError
from repro.spec import CCASpec, single_flow_scenario

RM = units.ms(40)


# Module-level run points: picklable by qualified name, so the spawn
# pool can import them in worker processes.

def square_point(params, budget):
    return {"value": params["x"] ** 2}


def flaky_point(params, budget):
    if params.get("fail"):
        raise SimulationError(f"boom at {params['x']}")
    return {"value": params["x"]}


def spec_point(params, budget):
    from repro.spec import ScenarioSpec
    spec = ScenarioSpec.from_json(params["scenario"])
    result = spec.run(duration=params["duration"], warmup=0.5)
    return {"throughput": result.stats[0].throughput}


def loaded_modules_point(params, budget):
    return {name: name in sys.modules for name in params["names"]}


def run_grid(backend, run_point, points, budget=None):
    outcomes = list(backend.execute(run_point, points,
                                    budget or RunBudget()))
    return {o.key: o for o in outcomes}


class TestExecutePoint:
    def test_success(self):
        outcome = execute_point(square_point, "k", {"x": 3}, RunBudget())
        assert outcome.ok
        assert outcome.result == {"value": 9}

    def test_recoverable_failure_becomes_runfailure(self):
        outcome = execute_point(flaky_point, "k", {"x": 1, "fail": True},
                                RunBudget())
        assert not outcome.ok
        assert outcome.failure.reason == "SimulationError"
        assert outcome.failure.attempts == 1
        assert "boom" in outcome.failure.message

    def test_programming_errors_wrap_as_internal_failure(self):
        # A buggy experiment script must not abort the whole sweep: it
        # degrades to RunFailure(kind="internal").
        def bad(params, budget):
            raise TypeError("not recoverable")

        outcome = execute_point(bad, "k", {}, RunBudget())
        assert not outcome.ok
        assert outcome.failure.kind == "internal"
        assert outcome.failure.reason == "TypeError"
        assert outcome.failure.attempts == 1
        assert outcome.failure.bundle is None  # no crash_dir configured

    def test_programming_errors_capture_crash_bundle(self, tmp_path):
        def bad(params, budget):
            raise TypeError("not recoverable")

        crash_dir = str(tmp_path / "crashes")
        outcome = execute_point(bad, "k", {"x": 1}, RunBudget(),
                                crash_dir=crash_dir)
        assert outcome.failure.kind == "internal"
        assert outcome.failure.bundle is not None
        with open(outcome.failure.bundle) as fh:
            bundle = json.load(fh)
        assert bundle["reason"] == "TypeError"
        assert bundle["params"] == {"x": 1}
        assert "Traceback" in bundle["traceback"]
        # Written atomically: no tempfile is left beside the bundle.
        assert sorted(p.name for p in (tmp_path / "crashes").iterdir()) \
            == [os.path.basename(outcome.failure.bundle)]

    def test_unwritable_crash_dir_records_failure_without_bundle(
            self, tmp_path):
        def bad(params, budget):
            raise TypeError("not recoverable")

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the crash directory should be")
        outcome = execute_point(bad, "k", {"x": 1}, RunBudget(),
                                crash_dir=str(blocker))
        assert outcome.failure.kind == "internal"
        assert outcome.failure.bundle is None

    def test_keyboard_interrupt_stays_fatal(self):
        def interrupted(params, budget):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute_point(interrupted, "k", {}, RunBudget())


class TestMakeBackend:
    def test_mapping(self):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(1), SerialBackend)
        pool = make_backend(4)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.jobs == 4

    def test_zero_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(jobs=0)


class TestSerialBackend:
    def test_yields_in_grid_order(self):
        points = [(f"p{i}", {"x": i}) for i in range(4)]
        outcomes = list(SerialBackend().execute(square_point, points,
                                                RunBudget()))
        assert [o.key for o in outcomes] == ["p0", "p1", "p2", "p3"]

    def test_on_start_callback(self):
        started = []
        list(SerialBackend().execute(
            square_point, [("a", {"x": 1})], RunBudget(),
            on_start=started.append))
        assert started == ["a"]


class TestProcessPoolBackend:
    def test_matches_serial(self):
        points = [(f"p{i}", {"x": i, "fail": i == 2})
                  for i in range(4)]
        budget = RunBudget()
        started = []
        serial = run_grid(SerialBackend(), flaky_point, points, budget)
        pooled = {o.key: o for o in ProcessPoolBackend(jobs=2).execute(
            flaky_point, points, budget, on_start=started.append)}
        assert sorted(started) == sorted(serial) == sorted(pooled)
        for key in serial:
            assert serial[key].result == pooled[key].result
            if serial[key].failure is None:
                assert pooled[key].failure is None
            else:
                assert pooled[key].failure.reason == \
                    serial[key].failure.reason
                assert pooled[key].failure.message == \
                    serial[key].failure.message

    def test_rejects_closures_with_clear_error(self):
        with pytest.raises(ConfigurationError, match="module-level"):
            list(ProcessPoolBackend(jobs=2).execute(
                lambda params, budget: None, [("a", {})], RunBudget()))

    def test_empty_grid(self):
        assert list(ProcessPoolBackend(jobs=2).execute(
            square_point, [], RunBudget())) == []

    def test_workers_start_without_numpy(self):
        # A spawned worker imports this module (so repro.analysis.sweep
        # and repro.spec) to unpickle its task; that is the worker's
        # start path and it must load no theory code, and no CCA before
        # a task names one.
        ccas = os.path.dirname(os.path.abspath(repro.ccas.__file__))
        names = ["numpy", "repro.core.convergence"] + sorted(
            f"repro.ccas.{name[:-3]}" for name in os.listdir(ccas)
            if name.endswith(".py")
            and name not in ("__init__.py", "base.py", "registry.py"))
        points = [(f"p{i}", {"names": names}) for i in range(2)]
        pooled = run_grid(ProcessPoolBackend(jobs=2),
                          loaded_modules_point, points)
        assert [pooled[key].result for key, _ in points] == \
            [dict.fromkeys(names, False)] * 2

    def test_runs_scenario_specs(self):
        spec = single_flow_scenario(CCASpec("vegas"),
                                    rate=units.mbps(5), rm=RM, seed=3)
        points = [("only", {"scenario": spec.to_json(),
                            "duration": 2.0})]
        serial = run_grid(SerialBackend(), spec_point, points)
        pooled = run_grid(ProcessPoolBackend(jobs=2), spec_point, points)
        assert serial["only"].result == pooled["only"].result


class TestResilientSweepWithBackends:
    POINTS = [(f"p{i}", {"x": i, "fail": i == 1}) for i in range(3)]

    def outcome_with(self, backend, checkpoint=None):
        sweep = ResilientSweep(flaky_point, budget=RunBudget(),
                               checkpoint_path=checkpoint,
                               backend=backend)
        return sweep.run(self.POINTS)

    def test_parallel_outcome_matches_serial(self):
        serial = self.outcome_with(SerialBackend())
        pooled = self.outcome_with(ProcessPoolBackend(jobs=2))
        assert serial.completed == pooled.completed
        assert [f.key for f in serial.failures] == \
            [f.key for f in pooled.failures]

    def test_parallel_checkpoint_resumes_serially_and_back(self,
                                                           tmp_path):
        checkpoint = str(tmp_path / "ck.json")
        first = self.outcome_with(ProcessPoolBackend(jobs=2), checkpoint)
        assert set(first.completed) == {"p0", "p2"}
        # Resuming — on any backend — simulates nothing: the completed
        # points are store hits, the failure the same record.
        for backend in (SerialBackend(), ProcessPoolBackend(jobs=2)):
            resumed = self.outcome_with(backend, checkpoint)
            assert (resumed.hits, resumed.misses) == (2, 0)
            assert resumed.completed == first.completed
            assert resumed.failures == first.failures

    def test_progress_callback_fires_with_pool(self):
        events = []
        sweep = ResilientSweep(flaky_point, budget=RunBudget(),
                               progress=lambda k, s: events.append((k, s)),
                               backend=ProcessPoolBackend(jobs=2))
        sweep.run(self.POINTS)
        assert ("p0", "run") in events
        assert ("p0", "ok") in events
        assert any(k == "p1" and s.startswith("failed")
                   for k, s in events)


class TestSweepRateDelayBackends:
    GRID = [2.0, 10.0]
    BUDGET = RunBudget(max_events=5_000_000, wall_clock=60.0)

    def test_parallel_bit_identical_to_serial(self):
        serial = sweep_rate_delay("vegas", self.GRID, RM, duration=3.0,
                                  budget=self.BUDGET, seed=5)
        pooled = sweep_rate_delay("vegas", self.GRID, RM, duration=3.0,
                                  budget=self.BUDGET, seed=5, jobs=2)
        assert serial.to_json() == pooled.to_json()

    def test_cca_spec_input(self):
        curve = sweep_rate_delay(CCASpec("vegas"), [2.0], RM,
                                 duration=2.0, budget=self.BUDGET)
        assert curve.label == "vegas"
        assert len(curve.points) == 1

    def test_class_is_not_a_grid_cca(self):
        from repro.ccas.vegas import Vegas
        # A grid CCA is a registry name or a CCASpec; a class is not
        # looked up by its module path, serially or on the pool.
        for jobs in (None, 2):
            with pytest.raises(ConfigurationError, match="declarative"):
                sweep_rate_delay(Vegas, self.GRID, RM, duration=2.0,
                                 budget=self.BUDGET, jobs=jobs)

    def test_callable_with_parallel_backend_rejected(self):
        from repro.ccas.vegas import Vegas
        # A closure cannot cross a process boundary.
        with pytest.raises(ConfigurationError, match="declarative"):
            sweep_rate_delay(lambda: Vegas(), self.GRID, RM,
                             duration=2.0, budget=self.BUDGET, jobs=2)

    def test_backend_and_jobs_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            sweep_rate_delay("vegas", self.GRID, RM,
                             backend=SerialBackend(), jobs=2)

    def test_template_sweep(self):
        template = single_flow_scenario(CCASpec("copa"),
                                        rate=units.mbps(1), rm=RM)
        curve = sweep_rate_delay("vegas", [2.0], RM, duration=2.0,
                                 budget=self.BUDGET, template=template)
        # The template's CCA (copa), not cca_factory, defines the flow.
        assert curve.label == "scenario"
        assert len(curve.points) == 1


class TestPointOutcome:
    def test_ok_property(self):
        assert PointOutcome(key="k", params={}, result=1).ok
        from repro.analysis.harness import RunFailure
        failure = RunFailure(key="k", reason="X", message="m",
                             attempts=1, elapsed=0.0)
        assert not PointOutcome(key="k", params={}, failure=failure).ok
