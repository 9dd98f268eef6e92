"""Sweep-service contract tests: durability, warmth, byte-identity.

The acceptance criteria under test:

* the HTTP API round-trips jobs (submit → wait → result → events) with
  correct status codes on every error path;
* ``wait`` is a long-poll the daemon answers at the terminal
  transition — no client sleep on the success path, no spinning on a
  server that ignores it — and snapshots are serialized under the
  service lock, never torn;
* a warm resubmission executes **zero** simulations — every point is a
  catalog ``hit`` read from the shared store before dispatch, so no
  worker pool starts (``warm`` flag) and each entry is read once;
* a killed daemon resumes its queue from the job directory alone;
* a submitted job's result bytes are identical to running the same
  experiment locally, under the serial and process-pool backends alike.
"""

import contextlib
import gc
import json
import os
import sys
import threading
import time
import weakref

import pytest

from repro import units
from repro.analysis.harness import ResilientSweep, RunBudget
from repro.analysis.competition import compile_matrix_plan
from repro.analysis.plan import run_plan
from repro.analysis.sweep import compile_sweep_plan, sweep_rate_delay
from repro.errors import ServiceError
from repro.service import (Job, JobSpec, JobStore, ReproServer,
                           ServiceClient, SweepService, build_plan,
                           job_id, render_result, serve_background)
from repro.service import queue as service_queue
from repro.store import ResultStore
from repro.store.fsio import FileIO

RATES = [2.0, 8.0]
BUDGET = RunBudget(wall_clock=120.0)


def _service(tmp_path, **kwargs):
    store = ResultStore(str(tmp_path / "cache"))
    kwargs.setdefault("budget", BUDGET)
    return SweepService(str(tmp_path / "jobs"), store, **kwargs)


def _sweep_spec(seed=3, rates=RATES):
    return JobSpec.sweep("vegas", rates, 40.0, duration=3.0, seed=seed)


SWEEP_DOC = {"kind": "sweep", "cca": "vegas", "rates_mbps": [1], "rm_ms": 40}
MATRIX_DOC = {"kind": "matrix", "ccas": ["vegas"], "rate_mbps": 10,
              "rm_ms": 40}


@pytest.fixture
def served(tmp_path):
    """A live daemon on an ephemeral port, torn down after the test."""
    service = _service(tmp_path)
    server = serve_background(service)
    client = ServiceClient(f"http://127.0.0.1:{server.port}",
                           timeout=60.0)
    try:
        yield service, client
    finally:
        server.close()


class TestJobSpec:
    def test_id_is_independent_of_omitted_defaults(self):
        explicit = JobSpec.from_json({
            "kind": "sweep", "cca": "vegas", "rates_mbps": RATES,
            "rm_ms": 40.0, "duration": 3.0, "seed": 3,
            "warmup_fraction": 0.5, "mss": 1500})
        minimal = JobSpec.from_json({
            "kind": "sweep", "cca": "vegas", "rates_mbps": RATES,
            "rm_ms": 40.0, "duration": 3.0, "seed": 3})
        assert job_id(explicit) == job_id(minimal)
        assert job_id(explicit) == job_id(_sweep_spec())

    @pytest.mark.parametrize("doc,compiler", [
        (SWEEP_DOC, compile_sweep_plan), (MATRIX_DOC, compile_matrix_plan)])
    def test_fields_and_defaults_are_the_compiler_signature(self, doc,
                                                            compiler):
        import inspect
        signature = inspect.signature(compiler).parameters
        spec = JobSpec.from_json(doc)
        assert list(spec.params) == list(signature)
        assert {name: spec.params[name] for name in signature
                if name not in doc} \
            == {name: param.default for name, param in signature.items()
                if param.default is not param.empty}
        # null stands for a field exactly where its default is None.
        nulls = {name: None for name, param in signature.items()
                 if param.default is None}
        assert JobSpec.from_json({**doc, **nulls}) == spec
        for name in set(signature) - set(nulls):
            with pytest.raises(ServiceError, match=name):
                JobSpec.from_json({**doc, name: None})

    def test_id_changes_with_params(self):
        assert job_id(_sweep_spec(seed=3)) != job_id(_sweep_spec(seed=4))

    @pytest.mark.parametrize("doc", [
        "not a dict",
        {"kind": "nope"},
        {"kind": "sweep", "cca": "vegas", "rates_mbps": [],
         "rm_ms": 40},
        {"kind": "sweep", "cca": "no-such-cca", "rates_mbps": [1],
         "rm_ms": 40},
        {"kind": "sweep", "cca": "vegas", "rates_mbps": [1],
         "rm_ms": -1},
        {"kind": "sweep", "cca": "vegas", "rates_mbps": [1],
         "rm_ms": 40, "bogus_field": 1},
        {"kind": "matrix", "ccas": [], "rate_mbps": 10, "rm_ms": 40},
        {"kind": "matrix", "ccas": ["vegas", "vegas"], "rate_mbps": 10,
         "rm_ms": 40},
        # A zero buffer must fail here, not per point at build.
        {"kind": "sweep", "cca": "vegas", "rates_mbps": [1], "rm_ms": 40,
         "template": {"link": {"rate": 1e6, "buffer_bytes": 0},
                      "flows": [{"cca": {"name": "vegas"}, "rm": 0.04}]}},
        # Wrong JSON types are rejected, never coerced or iterated...
        {**SWEEP_DOC, "seed": "abc"},
        {**SWEEP_DOC, "seed": 1.7},
        {**SWEEP_DOC, "mss": "big"},
        {**SWEEP_DOC, "duration": True},
        {**SWEEP_DOC, "rates_mbps": "2"},
        {**SWEEP_DOC, "template": 5},
        {**SWEEP_DOC, "template": {"link": 5, "flows": []}},
        {**MATRIX_DOC, "ccas": "vegas"},
        {**MATRIX_DOC, "topology": 3},
        # ...and fractions / thresholds are finite and in range.
        {**SWEEP_DOC, "warmup_fraction": "x"},
        {**SWEEP_DOC, "warmup_fraction": 5},
        {**SWEEP_DOC, "warmup_fraction": -1},
        {**SWEEP_DOC, "warmup_fraction": float("nan")},
        {**MATRIX_DOC, "starve_threshold": "x"},
        {**MATRIX_DOC, "starve_threshold": -1},
        {**MATRIX_DOC, "starve_threshold": float("nan")},
    ])
    def test_bad_specs_are_rejected(self, doc):
        with pytest.raises(ServiceError):
            build_plan(JobSpec.from_json(doc))

    def test_plan_matches_local_grid(self):
        from repro.analysis.sweep import build_rate_delay_points
        plan = build_plan(_sweep_spec())
        _, points = build_rate_delay_points(
            "vegas", RATES, units.ms(40.0), duration=3.0, seed=3)
        assert plan.points == points


class TestJobStore:
    def test_snapshot_roundtrip(self, tmp_path):
        store = JobStore(str(tmp_path))
        job = Job(id=job_id(_sweep_spec()), spec=_sweep_spec(),
                  created=12.0, total=2, done=1)
        assert store.save(job, {"event": "queued"}) == 0
        loaded = store.load(job.id)
        assert loaded.to_json() == job.to_json()
        assert [j.id for j in store.load_all()] == [job.id]
        # The log is the only file: no snapshot beside it.
        assert os.listdir(store.job_dir(job.id)) == ["events.ndjson"]

    def test_corrupt_snapshot_reads_as_absent(self, tmp_path):
        store = JobStore(str(tmp_path))
        jid = job_id(_sweep_spec())
        os.makedirs(store.job_dir(jid))
        with open(os.path.join(store.job_dir(jid), "events.ndjson"),
                  "w") as fh:
            fh.write('{"seq": 0, "event": "point"}\n{torn')
        assert store.load(jid) is None
        assert store.load_all() == []

    def test_last_snapshot_wins_and_point_lines_carry_none(self,
                                                          tmp_path):
        store = JobStore(str(tmp_path))
        job = Job(id=job_id(_sweep_spec()), spec=_sweep_spec())
        store.save(job, {"event": "queued"})
        job.state, job.total = "running", 2
        store.save(job, {"event": "started", "total": 2})
        store.append_event(job.id, {"event": "point", "key": "k"})
        assert store.load(job.id).to_json() == job.to_json()
        path = os.path.join(store.job_dir(job.id), "events.ndjson")
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert ["job" in line for line in lines] == [True, True, False]

    def test_events_are_sequenced_and_filterable(self, tmp_path):
        store = JobStore(str(tmp_path))
        for i in range(3):
            assert store.append_event("ab12", {"event": f"e{i}"}) == i
        assert [e["event"] for e in store.events("ab12")] \
            == ["e0", "e1", "e2"]
        assert [e["seq"] for e in store.events("ab12", since=1)] \
            == [1, 2]
        # A resubmit's queued line swaps in a fresh log at seq 0.
        job = Job(id="ab12", spec=_sweep_spec())
        assert store.save(job, {"event": "queued"}, new_log=True) == 0
        assert [(e["seq"], e["event"]) for e in store.events("ab12")] \
            == [(0, "queued")]
        assert store.append_event("ab12", {"event": "fresh"}) == 1
        assert "job" not in list(store.events("ab12"))[0]


class TestServiceExecution:
    def test_submit_runs_to_done_with_progress(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            job = service.submit(_sweep_spec())
            job = _wait(service, job.id)
            assert job.state == "done"
            assert (job.total, job.done, job.cached, job.failed) \
                == (len(RATES), len(RATES), 0, 0)
            assert not job.warm
            events = [e["event"] for e in service.events(job.id)]
            assert events[0] == "queued" and events[-1] == "done"
            assert events.count("point") == len(RATES)
        finally:
            service.stop()

    def test_result_bytes_identical_to_local_sweep(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            job = _wait(service,
                        service.submit(_sweep_spec()).id)
        finally:
            service.stop()
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        local = render_result(curve.to_json()).encode()
        assert service.result_bytes(job.id) == local

    def test_pool_backend_result_is_byte_identical(self, tmp_path):
        service = _service(tmp_path, jobs=2)
        service.start()
        try:
            job = _wait(service,
                        service.submit(_sweep_spec()).id)
        finally:
            service.stop()
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert service.result_bytes(job.id) \
            == render_result(curve.to_json()).encode()

    def test_matrix_job_matches_local_matrix(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        spec = JobSpec.from_json({
            "kind": "matrix", "ccas": ["vegas", "reno"], "rate_mbps": 8.0,
            "rm_ms": 40.0, "duration": 3.0, "seed": 5})
        try:
            job = _wait(service, service.submit(spec).id, timeout=120)
        finally:
            service.stop()
        assert job.state == "done"
        _, matrix = run_plan(
            compile_matrix_plan(["vegas", "reno"], 8.0, 40.0,
                                duration=3.0, seed=5), budget=BUDGET)
        assert service.result_bytes(job.id) \
            == render_result(matrix.to_json()).encode()

    def test_warm_resubmit_executes_zero_simulations(self, tmp_path):
        service = _service(tmp_path)
        service.start()
        try:
            cold = _wait(service, service.submit(_sweep_spec()).id)
            assert service.store.catalog.counts() \
                == {"miss": len(RATES)}
            warm = _wait(service, service.submit(_sweep_spec()).id)
            assert warm.id == cold.id
            assert warm.state == "done"
            assert warm.warm
            assert (warm.cached, warm.done) == (len(RATES), 0)
            # Catalog ground truth: the rerun only ever *hit*.
            assert service.store.catalog.counts() \
                == {"miss": len(RATES), "hit": len(RATES)}
        finally:
            service.stop()
        assert service.result_bytes(warm.id) \
            == service.result_bytes(cold.id)

    def test_warm_job_reads_each_entry_once(self, tmp_path, monkeypatch):
        """One pre-dispatch read per point: a warm job derives each
        cache key once and fetches each entry once."""
        from repro.analysis import backends
        from repro.service import queue
        service = _service(tmp_path)
        service.start()
        try:
            _wait(service, service.submit(_sweep_spec()).id)
            calls = {"key": 0, "fetch": 0}
            derive, fetch = backends.point_cache_key, ResultStore.fetch

            def counted_key(*args, **kwargs):
                calls["key"] += 1
                return derive(*args, **kwargs)

            def counted_fetch(self, key):
                calls["fetch"] += 1
                return fetch(self, key)

            for module in (backends, queue):
                monkeypatch.setattr(module, "point_cache_key", counted_key)
            monkeypatch.setattr(ResultStore, "fetch", counted_fetch)
            warm = _wait(service, service.submit(_sweep_spec()).id)
        finally:
            service.stop()
        assert warm.warm and warm.cached == len(RATES)
        assert calls == {"key": len(RATES), "fetch": len(RATES)}

    def test_local_sweep_warms_the_service(self, tmp_path):
        """The store is shared: a local --cache-dir run pre-warms jobs."""
        service = _service(tmp_path)
        sweep_rate_delay("vegas", RATES, units.ms(40.0), duration=3.0,
                         seed=3, store=service.store, budget=BUDGET)
        service.start()
        try:
            job = _wait(service, service.submit(_sweep_spec()).id)
        finally:
            service.stop()
        assert job.warm and job.cached == len(RATES)

    def test_active_jobs_coalesce(self, tmp_path):
        service = _service(tmp_path)  # not started: stays queued
        first = service.submit(_sweep_spec())
        second = service.submit(_sweep_spec())
        assert first is second
        assert service.stats()["counters"]["coalesced"] == 1

    def test_cancel_queued_job(self, tmp_path):
        service = _service(tmp_path)  # not started: nothing dequeues
        job = service.submit(_sweep_spec())
        assert service.cancel(job.id).state == "cancelled"
        # Starting the service must not resurrect it.
        service.start()
        try:
            time.sleep(0.2)
            assert service.get(job.id).state == "cancelled"
        finally:
            service.stop()

    def test_restarted_service_resumes_queued_job(self, tmp_path):
        first = _service(tmp_path)
        job = first.submit(_sweep_spec())  # never started: stays queued
        assert first.get(job.id).state == "queued"
        # A fresh daemon over the same directories picks the job up.
        second = _service(tmp_path)
        second.start()
        try:
            resumed = _wait(second, job.id)
            assert resumed.state == "done"
            assert resumed.runs == 1
        finally:
            second.stop()
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert second.result_bytes(job.id) \
            == render_result(curve.to_json()).encode()

    def test_failed_job_reports_error(self, tmp_path):
        service = _service(
            tmp_path, max_failures=0,
            budget=RunBudget(max_events=10))
        service.start()
        try:
            job = _wait(service, service.submit(_sweep_spec()).id)
            assert job.state == "failed"
            assert "max_failures" in job.error
        finally:
            service.stop()


@contextlib.contextmanager
def _http_only(tmp_path):
    """HTTP up, dispatcher down: submitted jobs stay ``queued``."""
    service = _service(tmp_path)
    server = ReproServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.1},
                              daemon=True)
    thread.start()
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.port}")
    finally:
        server.shutdown()
        server.server_close()


def _wait(service, jid, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.get(jid)
        if job.state in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {jid} still {service.get(jid).state}")


class TestHttpApi:
    def test_health_and_stats(self, served):
        _, client = served
        assert client.healthz()
        stats = client.stats()
        assert stats["jobs"] == {}
        assert stats["store"]["entries"] == 0

    def test_submit_wait_fetch_roundtrip(self, served):
        service, client = served
        raw = client.submit_and_wait(_sweep_spec(), timeout=90)
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert raw == render_result(curve.to_json()).encode()
        jobs = client.jobs()
        assert [j["state"] for j in jobs] == ["done"]
        events = list(client.events(jobs[0]["id"]))
        assert events[-1]["event"] == "done"
        assert list(client.events(jobs[0]["id"],
                                  since=events[-1]["seq"])) \
            == [events[-1]]

    def test_unknown_job_is_404(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.job("feedfacefeedface")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.result_bytes("feedfacefeedface")
        assert err.value.status == 404

    def test_bad_spec_is_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.submit(JobSpec("sweep", {"cca": "vegas"}))
        assert err.value.status == 400

    def test_malformed_spec_is_400_in_one_request(self, served):
        # A wrong-typed field is the client's error, not a transport
        # failure: one answer, nothing for the retry layer to sleep on.
        client = _CountingClient(served[1].base_url)
        with pytest.raises(ServiceError, match="seed") as err:
            client.submit(JobSpec("sweep", {**SWEEP_DOC, "seed": "abc"}))
        assert err.value.status == 400
        assert client.sleeps == []

    def test_unready_result_is_409(self, tmp_path):
        with _http_only(tmp_path) as client:
            job = client.submit(_sweep_spec())
            assert job["state"] == "queued"
            with pytest.raises(ServiceError) as err:
                client.result_bytes(job["id"])
            assert err.value.status == 409

    def test_unknown_route_is_404(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_cancel_over_http(self, tmp_path):
        with _http_only(tmp_path) as client:
            job = client.submit(_sweep_spec())
            assert client.cancel(job["id"])["state"] == "cancelled"

    def test_concurrent_submissions_coalesce(self, served):
        service, client = served
        snapshots = []

        def submit():
            snapshots.append(client.submit(_sweep_spec()))

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({s["id"] for s in snapshots}) == 1
        _wait(service, snapshots[0]["id"])
        # One execution total, no matter how many clients raced.
        assert service.stats()["counters"]["completed"] == 1


def _counting_server(service):
    """A live daemon that records every connection it accepts."""
    server = serve_background(service)
    accepted = []
    accept = server.get_request

    def counting():
        request = accept()
        accepted.append(request[1])
        return request

    server.get_request = counting
    return server, accepted


class TestKeepAlive:
    """A client keeps one connection per thread between requests."""

    def test_warm_op_is_one_connection_per_thread(self, tmp_path):
        server, accepted = _counting_server(_service(tmp_path))
        url = f"http://127.0.0.1:{server.port}"
        try:
            ServiceClient(url, timeout=60.0).submit_and_wait(
                _sweep_spec(), timeout=90)
            del accepted[:]
            client = ServiceClient(url)
            job = client.submit(_sweep_spec())
            assert client.wait(job["id"])["warm"]
            client.result_bytes(job["id"])
            assert len(accepted) == 1  # submit, long-poll, result
            threads = [threading.Thread(target=client.stats)
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(accepted) == 3  # one more per calling thread
        finally:
            server.close()

    @pytest.mark.parametrize("url", ["127.0.0.1:8642", "http://",
                                     "https://127.0.0.1:8642",
                                     "http://127.0.0.1:port"])
    def test_url_that_is_not_plain_http_is_refused(self, url):
        with pytest.raises(ServiceError, match="http://HOST"):
            ServiceClient(url)

    def test_restarted_daemon_is_reached_on_the_next_call(self,
                                                          tmp_path):
        server = serve_background(_service(tmp_path))
        port = server.port
        sleeps = []
        client = ServiceClient(f"http://127.0.0.1:{port}", seed=1,
                               sleep=sleeps.append)
        assert client.health()["ok"]
        # Closing shuts the kept-alive connection down: the stopped
        # daemon's handler cannot answer (it would say 503) ...
        server.close()
        server = serve_background(_service(tmp_path), port=port)
        try:
            # ... so the next call fails once on the dead socket and
            # its retry connects to the new daemon.
            assert client.health()["ok"]
            assert len(sleeps) == 1
            # The client's own error is still raised at once.
            with pytest.raises(ServiceError) as err:
                client.submit(JobSpec("sweep", {**SWEEP_DOC,
                                                "seed": "abc"}))
            assert err.value.status == 400
            assert len(sleeps) == 1
        finally:
            server.close()


class TestStopCheck:
    """The harness hook the service's cancellation rides on."""

    def test_stop_check_ends_sweep_at_point_boundary(self):
        ran = []

        def run_point(params, budget):
            ran.append(params["i"])
            return {"i": params["i"]}

        sweep = ResilientSweep(run_point, budget=BUDGET,
                               stop_check=lambda: len(ran) >= 2)
        outcome = sweep.run([(f"p{i}", {"i": i}) for i in range(5)])
        assert outcome.stopped
        assert len(outcome.completed) == 2

    def test_no_stop_check_runs_everything(self):
        sweep = ResilientSweep(lambda params, budget: params,
                               budget=BUDGET)
        outcome = sweep.run([(f"p{i}", {"i": i}) for i in range(3)])
        assert not outcome.stopped
        assert len(outcome.completed) == 3


class _CountingClient(ServiceClient):
    """Records every ``job()`` call and every sleep it would take."""

    def __init__(self, base_url, **kwargs):
        self.sleeps = []
        self.job_calls = []
        super().__init__(base_url, sleep=self.sleeps.append, **kwargs)

    def job(self, jid, wait=None):
        self.job_calls.append(wait)
        return super().job(jid, wait=wait)


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestLongPoll:
    """``GET /jobs/<id>?wait=S``: completion is an event, not a guess."""

    def test_warm_roundtrip_is_one_poll_and_no_sleep(self, served):
        service, client = served
        cold = client.submit_and_wait(_sweep_spec(), timeout=90)
        counting = _CountingClient(client.base_url)
        job = counting.submit(_sweep_spec())
        snapshot = counting.wait(job["id"])
        assert snapshot["state"] == "done" and snapshot["warm"]
        assert counting.result_bytes(job["id"]) == cold
        assert len(counting.job_calls) == 1
        assert counting.sleeps == []
        assert service.stats()["counters"]["waits"] >= 1

    def test_a_done_answer_follows_the_done_event(self, served):
        # The terminal event is on disk before the state is visible, so
        # a client that reads the stream after wait() sees it last.
        _, client = served
        client.submit_and_wait(_sweep_spec(), timeout=90)
        for _ in range(20):
            jid = client.submit(_sweep_spec())["id"]
            assert client.wait(jid)["state"] == "done"
            assert list(client.events(jid))[-1]["event"] == "done"

    def test_cold_wait_returns_with_the_done_event(self, served):
        _, client = served
        counting = _CountingClient(client.base_url)
        job = counting.submit(_sweep_spec())
        snapshot = counting.wait(job["id"], timeout=90)
        late = time.time() - snapshot["finished"]
        assert snapshot["state"] == "done" and not snapshot["warm"]
        # One request round trip after the transition, not a poll
        # interval (the old ramp was up to 2 s late).
        assert late < 0.5
        assert len(counting.job_calls) == 1 and counting.sleeps == []

    def test_cancel_wakes_a_waiter_on_a_queued_job(self, tmp_path):
        with _http_only(tmp_path) as client:
            jid = client.submit(_sweep_spec())["id"]
            woken = []
            waiter = threading.Thread(
                target=lambda: woken.append(client.wait(jid, timeout=30)))
            began = time.monotonic()
            waiter.start()
            _until(lambda: client.stats()["counters"]["waits"] == 1)
            client.cancel(jid)
            waiter.join(timeout=5)
            assert not waiter.is_alive()
            assert woken[0]["state"] == "cancelled"
            assert woken[0]["finished"] is not None
            assert time.monotonic() - began < 5  # not the 10 s hold

    def test_stop_releases_blocked_waiters(self, tmp_path):
        # A running job planted after start(): no dispatcher runs it, so
        # it never turns terminal and only stop() can wake the waiter.
        spec = _sweep_spec()
        service = _service(tmp_path)
        service.start()
        with service._lock:
            service._jobs[job_id(spec)] = Job(
                id=job_id(spec), spec=spec, state="running",
                created=round(time.time(), 3))
        answered = []
        waiter = threading.Thread(target=lambda: answered.append(
            service.wait_terminal(job_id(spec), 30.0)))
        waiter.start()
        try:
            _until(lambda: service.stats()["counters"]["waits"] == 1)
        finally:
            service.stop()
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        assert answered[0]["state"] == "running"
        assert service.stats()["counters"]["waits_expired"] == 0

    def test_hold_expiry_answers_200_and_wait_asks_again(self, tmp_path):
        with _http_only(tmp_path) as client:
            jid = client.submit(_sweep_spec())["id"]
            # timeout=0.4 caps each hold at 0.2 s (half the socket
            # timeout), so a 0.5 s wait() spans three long-polls.
            counting = _CountingClient(client.base_url, timeout=0.4)
            began = time.monotonic()
            with pytest.raises(ServiceError) as err:
                counting.wait(jid, timeout=0.5)
            assert "still queued after 0.5s" in str(err.value)
            assert 0.5 <= time.monotonic() - began < 3.0
            assert counting.job_calls[:2] == [0.2, 0.2]
            assert 3 <= len(counting.job_calls) <= 4
            # The daemon held every request its full time: the no-spin
            # guard had nothing to sleep out.
            assert counting.sleeps == []
            counters = client.stats()["counters"]
            assert counters["waits_expired"] >= 3
            assert client.job(jid)["state"] == "queued"

    def test_wait_cannot_spin_on_a_server_that_ignores_wait(self):
        from http.server import BaseHTTPRequestHandler, HTTPServer
        requests = []

        class IgnoresWait(BaseHTTPRequestHandler):
            def do_GET(self):
                requests.append(self.path)
                body = b'{"state": "queued"}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        stub = HTTPServer(("127.0.0.1", 0), IgnoresWait)
        thread = threading.Thread(target=stub.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{stub.server_address[1]}", timeout=0.4)
            with pytest.raises(ServiceError):
                client.wait("ab12", timeout=1.0)
        finally:
            stub.shutdown()
            stub.server_close()
        # Every answer is instant and non-terminal; the client sleeps
        # out each 0.2 s hold, so one second buys ~5 requests, not 5000.
        assert 2 <= len(requests) <= 8
        assert all("?wait=" in path for path in requests)

    @pytest.mark.parametrize("bad", ["abc", "nan", "-1", "inf", "-inf",
                                     "1e999"])
    def test_bad_wait_values_are_400(self, tmp_path, bad):
        with _http_only(tmp_path) as client:
            jid = client.submit(_sweep_spec())["id"]
            with pytest.raises(ServiceError) as err:
                client._request("GET", f"/jobs/{jid}?wait={bad}")
            assert err.value.status == 400
            assert client.stats()["counters"]["waits"] == 0

    def test_wait_zero_and_unknown_jobs_do_not_block(self, tmp_path):
        with _http_only(tmp_path) as client:
            jid = client.submit(_sweep_spec())["id"]
            began = time.monotonic()
            assert client.job(jid, wait=0) == client.job(jid)
            with pytest.raises(ServiceError) as err:
                client.job("feedfacefeedface", wait=10)
            assert err.value.status == 404
            assert time.monotonic() - began < 2.0
            counters = client.stats()["counters"]
            assert (counters["waits"], counters["waits_expired"]) == (0, 0)
            # The server's cap, not the caller, bounds a hold... and a
            # terminal job answers at once whatever was asked.
            client.cancel(jid)
            assert client.job(jid, wait=1e6)["state"] == "cancelled"
            assert time.monotonic() - began < 2.0


class _RecordingFS(FileIO):
    """A FileIO that records the name of every file it writes or
    appends to, and the text of every job log write."""

    def __init__(self):
        self.writes = []
        self.appends = []
        self.log_texts = []

    def write_atomic(self, path, text, prefix=".tmp-"):
        self.writes.append(os.path.basename(path))
        self._note(path, text)
        super().write_atomic(path, text, prefix=prefix)

    def append(self, path, text):
        self.appends.append(os.path.basename(path))
        self._note(path, text)
        super().append(path, text)

    def _note(self, path, text):
        if os.path.basename(path) == "events.ndjson":
            self.log_texts.append(text)

    def job_snapshots(self):
        """The job snapshots logged, one per state transition."""
        lines = [json.loads(line) for text in self.log_texts
                 for line in text.splitlines() if line]
        return [line["job"] for line in lines if "job" in line]


class TestSnapshots:
    def test_warm_job_logs_a_snapshot_on_transitions_only(self,
                                                          tmp_path):
        fs = _RecordingFS()
        service = _service(tmp_path, fs=fs)
        sweep_rate_delay("vegas", RATES, units.ms(40.0), duration=3.0,
                         seed=3, store=service.store, budget=BUDGET)
        service.start()
        try:
            job = _wait(service, service.submit(_sweep_spec()).id)
        finally:
            service.stop()
        assert job.warm
        # queued, running, done: one snapshot per transition, none per
        # point and none for resetting the counters.
        assert [snap["state"] for snap in fs.job_snapshots()] == \
            ["queued", "running", "done"]
        assert JobStore(service.job_store.root).load(job.id).to_json() \
            == service.snapshot(job.id)
        assert service.snapshot(job.id)["progress"]["cached"] == len(RATES)
        assert sorted(os.listdir(service.job_store.job_dir(job.id))) \
            == ["events.ndjson", "result.json"]

    def test_warm_job_writes_each_file_once(self, tmp_path, monkeypatch):
        fs = _RecordingFS()
        store = ResultStore(str(tmp_path / "cache"), fs=fs)
        service = SweepService(str(tmp_path / "jobs"), store,
                               budget=BUDGET, fs=fs)
        rates = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        spec = JobSpec.sweep("vegas", rates, 40.0, duration=1.0, seed=3)
        sweep_rate_delay("vegas", rates, units.ms(40.0), duration=1.0,
                         seed=3, store=store, budget=BUDGET)
        made = []
        real_makedirs = os.makedirs

        def counting_makedirs(*args, **kwargs):
            made.append(args[0])
            real_makedirs(*args, **kwargs)

        service.start()
        try:
            # The first warm job makes its job directory; the second
            # finds every directory in place.
            service.wait_terminal(service.submit(spec).id, 90)
            del fs.writes[:], fs.appends[:]
            monkeypatch.setattr(os, "makedirs", counting_makedirs)
            job = service.submit(spec)
            snapshot = service.wait_terminal(job.id, 90)
        finally:
            service.stop()
        assert snapshot["warm"]
        assert snapshot["progress"]["cached"] == len(rates)
        # The resubmit's queued line swaps in a fresh log; started,
        # the points and done are appends to it.
        assert sorted(fs.appends) == ["catalog.jsonl"] \
            + ["events.ndjson"] * 3
        assert sorted(fs.writes) == ["events.ndjson", "result.json"]
        assert made == []
        # The event documents are one per point, as they always were.
        keys = [key for key, _ in build_plan(spec).points]
        events = [{k: v for k, v in event.items() if k != "ts"}
                  for event in service.events(job.id)]
        assert events == (
            [{"seq": 0, "event": "queued"},
             {"seq": 1, "event": "started", "total": len(rates),
              "run": 2, "attempt": 1}]
            + [{"seq": 2 + n, "event": "point", "key": key,
                "status": "cached"} for n, key in enumerate(keys)]
            + [{"seq": 2 + len(rates), "event": "done"}])

    def test_served_events_of_a_warm_job_are_the_documents_they_were(
            self, served):
        service, client = served
        sweep_rate_delay("vegas", RATES, units.ms(40.0), duration=3.0,
                         seed=3, store=service.store, budget=BUDGET)
        jid = client.submit(_sweep_spec())["id"]
        assert client.wait(jid, timeout=90)["warm"]
        keys = [key for key, _ in build_plan(_sweep_spec()).points]
        served_docs = list(client.events(jid))
        # Exactly the documents the log served before it held the
        # snapshots: no ``job`` key on any of them.
        assert [{k: v for k, v in doc.items() if k != "ts"}
                for doc in served_docs] == (
            [{"seq": 0, "event": "queued"},
             {"seq": 1, "event": "started", "total": len(RATES),
              "run": 1, "attempt": 1}]
            + [{"seq": 2 + n, "event": "point", "key": key,
                "status": "cached"} for n, key in enumerate(keys)]
            + [{"seq": 2 + len(RATES), "event": "done"}])
        # On disk the transition lines carry the job, the points not.
        path = os.path.join(service.job_store.job_dir(jid),
                            "events.ndjson")
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        assert [line["job"]["state"] for line in lines if "job" in line] \
            == ["queued", "running", "done"]
        assert [line for line in lines if "job" not in line] == \
            [doc for doc in served_docs if doc["event"] == "point"]

    def test_a_finished_job_holds_no_plan(self, tmp_path, monkeypatch):
        built = []
        real_build_plan = service_queue.build_plan

        def tracking_build_plan(spec):
            plan = real_build_plan(spec)
            built.append(weakref.ref(plan))
            return plan

        monkeypatch.setattr(service_queue, "build_plan",
                            tracking_build_plan)
        service = _service(tmp_path)
        sweep_rate_delay("vegas", RATES, units.ms(40.0), duration=3.0,
                         seed=3, store=service.store, budget=BUDGET)
        service.start()
        try:
            for _ in range(50):
                job = service.submit(_sweep_spec())
                assert service.wait_terminal(job.id, 90)["warm"]
        finally:
            service.stop()
        assert len(built) == 50  # compiled once, at submit
        gc.collect()
        assert [ref for ref in built if ref() is not None] == []

    def test_running_job_has_no_heartbeat_thread(self, tmp_path,
                                                 monkeypatch):
        threads = []
        real_run_plan = service_queue.run_plan

        def spying_run_plan(*args, **kwargs):
            threads.extend(t.name for t in threading.enumerate())
            return real_run_plan(*args, **kwargs)

        monkeypatch.setattr(service_queue, "run_plan", spying_run_plan)
        fs = _RecordingFS()
        service = _service(tmp_path, fs=fs)
        service.start()
        try:
            job = _wait(service, service.submit(_sweep_spec()).id)
        finally:
            service.stop()
        assert job.state == "done" and not job.warm
        assert "sweep-service-dispatcher" in threads
        assert not [name for name in threads if "heartbeat" in name]
        # queued, running, done: transitions only.
        assert [snap["state"] for snap in fs.job_snapshots()] == \
            ["queued", "running", "done"]

    def test_takeover_rerun_starts_from_zero_on_disk(self, tmp_path):
        spec = _sweep_spec()
        JobStore(str(tmp_path / "jobs")).save(Job(
            id=job_id(spec), spec=spec, state="running",
            created=round(time.time(), 3), total=len(RATES), done=1,
            cached=1, failed=1, runs=1, attempts=1), {"event": "started"})
        fs = _RecordingFS()
        service = _service(tmp_path, fs=fs)
        service.start()
        try:
            job = _wait(service, job_id(spec))
        finally:
            service.stop()
        assert job.state == "done" and job.attempts == 2
        running = [snap for snap in fs.job_snapshots()
                   if snap["state"] == "running"]
        assert len(running) == 1
        assert running[0]["progress"] == {"total": len(RATES), "done": 0,
                                          "cached": 0, "failed": 0}

    def test_snapshots_are_never_torn_under_load(self, served,
                                                 monkeypatch):
        """Hammer both snapshot routes while jobs run and re-run."""
        service, client = served
        real_to_json = Job.to_json

        def slow_to_json(job):
            # Widen the window between two field reads so a serializer
            # running outside the service lock tears every time.
            state = job.state
            time.sleep(0.002)
            return {**real_to_json(job), "state": state}

        monkeypatch.setattr(Job, "to_json", slow_to_json)
        jid = job_id(_sweep_spec())
        stop = threading.Event()
        torn, seen = [], []

        def check(snap):
            seen.append(snap["state"])
            progress = snap["progress"]
            finished = (progress["done"] + progress["cached"]
                        + progress["failed"])
            terminal = snap["state"] in ("done", "failed", "cancelled")
            if (terminal != (snap["finished"] is not None)
                    or finished > progress["total"]
                    or (snap["state"] == "queued"
                        and snap["started"] is not None)
                    or (snap["state"] == "running"
                        and snap["started"] is None)):
                torn.append(snap)

        def hammer():
            reader = ServiceClient(client.base_url, timeout=60.0)
            while not stop.is_set():
                try:
                    check(reader.job(jid))
                except ServiceError:
                    continue  # not submitted yet
                for snap in reader.jobs():
                    check(snap)

        readers = [threading.Thread(target=hammer) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for _ in range(8):  # one cold run, then warm re-runs
                client.submit_and_wait(_sweep_spec(), timeout=90)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert torn == []
        assert len(seen) > 50 and "done" in seen
