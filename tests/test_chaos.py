"""Chaos tests: the sweep must survive whatever a grid point does.

Three hostile point behaviors — killing its worker outright
(``os._exit``), hanging past the parent-side timeout, and raising an
:class:`~repro.errors.InvariantViolation`. In every case the sweep
completes with per-point ``RunFailure`` records (never an abort), and
a resume on either backend serves every completed point from the store
and every failure from the checkpoint's records, simulating nothing.
"""

import json
import os
import signal
import time

from repro import units
from repro.analysis.backends import (ProcessPoolBackend, SerialBackend,
                                     execute_point)
from repro.analysis.diagnostics import load_bundle, replay_bundle
from repro.analysis.harness import ResilientSweep, RunBudget
from repro.errors import InvariantViolation
from repro.spec import CCASpec, single_flow_scenario

RM = units.ms(40)

#: Small budgets / short timeouts keep the chaos rounds fast.
BUDGET = RunBudget(max_events=None, wall_clock=None)


# Module-level run points (picklable by qualified name).

def chaos_point(params, budget):
    """A grid point whose params decide how it misbehaves."""
    if params.get("die"):
        os._exit(1)   # kills the pool worker without cleanup
    if params.get("hang"):
        time.sleep(3600.0)
    if params.get("violate"):
        raise InvariantViolation(
            "fabricated conservation break for chaos testing",
            kind="conservation", sim_time=1.25,
            details={"site": "test.fabricated"})
    return {"value": params["x"] * 2}


def sim_point(params, budget):
    """A real (deterministic) simulation point for replay tests."""
    from repro.spec import ScenarioSpec
    spec = ScenarioSpec.from_json(params["scenario"])
    result = spec.run(duration=params["duration"], warmup=0.5,
                      max_events=budget.max_events,
                      wall_clock_budget=budget.wall_clock)
    return {"throughput": result.stats[0].throughput}


def grid(*behaviors):
    """``[("p0", {...}), ...]`` — one point per behavior dict."""
    return [(f"p{i}", dict(x=i, **behavior))
            for i, behavior in enumerate(behaviors)]


def chaos_backend(**kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("point_timeout", 1.0)
    kwargs.setdefault("max_point_attempts", 2)
    return ProcessPoolBackend(**kwargs)


class TestKilledWorker:
    def test_sweep_survives_os_exit(self):
        backend = chaos_backend()
        points = grid({}, {"die": True}, {}, {})
        outcomes = {o.key: o for o in backend.execute(
            chaos_point, points, BUDGET)}
        assert len(outcomes) == 4
        assert outcomes["p0"].result == {"value": 0}
        assert outcomes["p2"].result == {"value": 4}
        assert outcomes["p3"].result == {"value": 6}
        failure = outcomes["p1"].failure
        assert failure is not None
        assert failure.kind == "worker_lost"
        assert failure.reason == "WorkerLost"
        assert failure.attempts == 2
        assert backend.respawns >= 1

    def test_innocent_co_pending_points_are_exonerated(self):
        # Points sharing the pool with a worker-killer get requeued,
        # then the suspects run isolated; only the true culprit is
        # quarantined.
        backend = chaos_backend(jobs=4)
        points = grid({}, {"die": True}, {}, {}, {}, {})
        outcomes = {o.key: o for o in backend.execute(
            chaos_point, points, BUDGET)}
        quarantined = [k for k, o in outcomes.items()
                       if o.failure is not None]
        assert quarantined == ["p1"]
        for key in ("p0", "p2", "p3", "p4", "p5"):
            assert outcomes[key].ok


class TestHungWorker:
    def test_sweep_survives_hang(self):
        backend = chaos_backend()
        points = grid({}, {"hang": True}, {})
        start = time.monotonic()
        outcomes = {o.key: o for o in backend.execute(
            chaos_point, points, BUDGET)}
        elapsed = time.monotonic() - start
        assert outcomes["p0"].ok and outcomes["p2"].ok
        failure = outcomes["p1"].failure
        assert failure is not None
        assert failure.kind == "timeout"
        assert failure.reason == "PointTimeout"
        assert "stall window" in failure.message
        assert backend.respawns >= 1
        # Two 1 s stall windows plus pool spawns, not 3600 s.
        assert elapsed < 60.0


class TestInvariantViolationPoint:
    def test_serial_records_error_failure(self, tmp_path):
        crash_dir = str(tmp_path / "crashes")
        outcome = execute_point(chaos_point, "bad",
                                {"x": 0, "violate": True}, BUDGET,
                                crash_dir=crash_dir)
        failure = outcome.failure
        assert failure.kind == "error"
        assert failure.reason == "InvariantViolation"
        bundle = load_bundle(failure.bundle)
        assert bundle["reason"] == "InvariantViolation"
        assert bundle["engine"]["kind"] == "conservation"
        assert bundle["engine"]["sim_time"] == 1.25
        assert bundle["details"]["site"] == "test.fabricated"

    def test_pool_matches_serial(self):
        points = grid({}, {"violate": True})
        serial = {o.key: o for o in SerialBackend().execute(
            chaos_point, points, BUDGET)}
        pooled = {o.key: o for o in chaos_backend().execute(
            chaos_point, points, BUDGET)}
        for key in serial:
            assert pooled[key].ok == serial[key].ok
            if serial[key].failure is not None:
                assert (pooled[key].failure.reason
                        == serial[key].failure.reason)
                assert (pooled[key].failure.kind
                        == serial[key].failure.kind)


class TestCheckpointAcrossChaos:
    POINTS = grid({}, {"die": True}, {}, {"violate": True}, {})

    def run_sweep(self, backend, checkpoint):
        sweep = ResilientSweep(chaos_point, budget=BUDGET,
                               checkpoint_path=checkpoint,
                               backend=backend)
        return sweep.run(self.POINTS)

    def test_resume_after_chaos_is_bit_identical(self, tmp_path):
        checkpoint = str(tmp_path / "ck.json")
        first = self.run_sweep(chaos_backend(), checkpoint)
        assert set(first.completed) == {"p0", "p2", "p4"}
        assert sorted(f.key for f in first.failures) == ["p1", "p3"]
        kinds = {f.key: f.kind for f in first.failures}
        assert kinds["p1"] == "worker_lost"
        assert kinds["p3"] == "error"
        with open(checkpoint) as fh:
            saved = json.load(fh)

        # Resuming on either backend simulates nothing: the completed
        # points are store hits, the failures the same records.
        for backend in (SerialBackend(), chaos_backend()):
            resumed = self.run_sweep(backend, checkpoint)
            assert (resumed.hits, resumed.misses) == (3, 0)
            assert resumed.completed == first.completed
            assert [f.to_json() for f in resumed.failures] == \
                [f.to_json() for f in first.failures]
            with open(checkpoint) as fh:
                assert json.load(fh) == saved

    def test_serial_backend_failure_records_match(self, tmp_path):
        # Serial cannot see worker_lost (no worker to lose: os._exit
        # from a serial point would kill the test process), so compare
        # the surviving subset only.
        points = grid({}, {"violate": True}, {})
        serial = ResilientSweep(chaos_point, budget=BUDGET,
                                backend=SerialBackend()).run(points)
        pooled = ResilientSweep(chaos_point, budget=BUDGET,
                                backend=chaos_backend()).run(points)
        assert serial.completed == pooled.completed
        assert [f.key for f in serial.failures] == \
            [f.key for f in pooled.failures]
        assert [f.reason for f in serial.failures] == \
            [f.reason for f in pooled.failures]


class TestSignalFlush:
    def test_no_checkpoint_leaves_sigint_untouched(self, tmp_path):
        """Every store put and failure write lands before the next point
        starts, so there is nothing to flush: with a checkpoint or
        without, Ctrl-C must reach the running point at once."""
        before = signal.getsignal(signal.SIGINT)
        seen = []

        def progress(key, status):
            seen.append(signal.getsignal(signal.SIGINT))

        for checkpoint in (None, str(tmp_path / "ck.json")):
            ResilientSweep(chaos_point, budget=BUDGET,
                           checkpoint_path=checkpoint,
                           backend=SerialBackend(),
                           progress=progress).run(grid({}, {"violate": 1}))
        assert len(seen) == 8
        assert all(handler is before for handler in seen)
        assert signal.getsignal(signal.SIGINT) is before


class TestReplayDeterminism:
    def test_bundle_replay_reproduces_sim_failure(self, tmp_path):
        # A real simulation point that blows its event budget captures
        # a bundle; replaying the bundle reproduces the exact failure,
        # and a scaled-up budget clears it.
        crash_dir = str(tmp_path / "crashes")
        spec = single_flow_scenario(CCASpec("vegas"),
                                    rate=units.mbps(5), rm=RM, seed=7)
        params = {"scenario": spec.to_json(), "duration": 5.0}
        tight = RunBudget(max_events=200, wall_clock=30.0)
        outcome = execute_point(sim_point, "tight", params, tight,
                                crash_dir=crash_dir)
        failure = outcome.failure
        assert failure is not None
        assert failure.reason == "BudgetExceededError"
        assert failure.bundle is not None

        replay = replay_bundle(failure.bundle)
        assert replay.failure is not None
        assert replay.failure.reason == failure.reason
        assert replay.failure.message == failure.message

        healed = replay_bundle(failure.bundle, budget_scale=10_000.0)
        assert healed.ok
        assert healed.result["throughput"] > 0

        # The budget section is the two limits; a bundle written when
        # budgets also carried a retry policy still replays, once.
        with open(failure.bundle) as fh:
            data = json.load(fh)
        assert data["budget"] == {"max_events": 200, "wall_clock": 30.0}
        data["budget"].update(retries=1, backoff=2.0)
        older = tmp_path / "older.json"
        older.write_text(json.dumps(data))
        replay = replay_bundle(str(older)).failure
        assert (replay.message, replay.attempts) == (failure.message, 1)

    def test_strict_replay_of_clean_point_passes(self, tmp_path):
        crash_dir = str(tmp_path / "crashes")
        spec = single_flow_scenario(CCASpec("vegas"),
                                    rate=units.mbps(5), rm=RM, seed=7)
        params = {"scenario": spec.to_json(), "duration": 5.0}
        tight = RunBudget(max_events=200, wall_clock=30.0)
        outcome = execute_point(sim_point, "tight", params, tight,
                                crash_dir=crash_dir)
        healed = replay_bundle(outcome.failure.bundle,
                               invariants="strict",
                               budget_scale=10_000.0)
        assert healed.ok
