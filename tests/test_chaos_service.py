"""Chaos-hardening contract tests for the control plane.

The acceptance criteria under test:

* :class:`ChaosPolicy` is deterministic — a pinned seed replays the
  same fault schedule, which is what lets every test below assert
  exact outcomes instead of probabilities;
* :class:`ServiceClient` rides out injected transport faults (drops,
  5xx, truncated bodies) and still fetches result bytes identical to a
  fault-free local run — and retrying ``POST /jobs`` is safe because
  job ids are content-derived (at-least-once delivery coalesces);
* one daemon holds a job directory at a time, so a ``running`` job
  found at startup is orphaned (its daemon was SIGKILLed): it is taken
  over and re-runs against the store without re-simulating finished
  points; a job that burns ``max_attempts`` executions goes ``dead``,
  not back in the queue;
* storage faults degrade, never corrupt: ENOSPC turns into
  degrade-to-no-cache (job done, ``degraded: true``, store empty),
  torn/bit-flipped store objects read as misses, and
  ``verify(repair=True)`` quarantines every bad object so a fresh
  ``verify()`` is clean.
"""

import errno
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro import units
from repro.analysis.backends import execute_point
from repro.analysis.harness import RunBudget
from repro.analysis.sweep import sweep_rate_delay
from repro.errors import ConfigurationError, ServiceError
from repro.service import (ChaosPolicy, ChaosSite, FaultyFS, Job,
                           JobSpec, JobStore, ServiceClient,
                           SweepService, job_id, render_result,
                           serve_background)
from repro.store import ResultStore
from repro.store.fsio import FileIO

RATES = [2.0, 8.0]
BUDGET = RunBudget(wall_clock=120.0)


def _sweep_spec(seed=3, rates=RATES):
    return JobSpec.sweep("vegas", rates, 40.0, duration=3.0, seed=seed)


def _policy(seed=0, **sites):
    """Policy from ``{"fs.torn": {...}}``-style kwargs (dots as __)."""
    return ChaosPolicy(seed=seed, sites=[
        ChaosSite(name=name.replace("__", "."), **cfg)
        for name, cfg in sites.items()])


def _service(tmp_path, fs=None, store_fs=None, **kwargs):
    store = ResultStore(str(tmp_path / "cache"), fs=store_fs)
    kwargs.setdefault("budget", BUDGET)
    return SweepService(str(tmp_path / "jobs"), store, fs=fs, **kwargs)


def _wait(service, jid, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.get(jid)
        if job.state in ("done", "failed", "cancelled", "dead"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {jid} still {service.get(jid).state}")


class TestChaosPolicy:
    def test_same_seed_replays_identically(self):
        make = lambda: _policy(  # noqa: E731
            seed=42, http__error={"rate": 0.5},
            fs__torn={"rate": 0.3})
        a, b = make(), make()
        sequence = [(a.fires("http.error") is not None,
                     a.fires("fs.torn") is not None)
                    for _ in range(200)]
        assert sequence == [(b.fires("http.error") is not None,
                             b.fires("fs.torn") is not None)
                            for _ in range(200)]
        # A rate that high must actually fire over 200 draws.
        assert any(error for error, _ in sequence)
        assert a.counts() == b.counts()

    def test_limit_caps_total_fires(self):
        policy = _policy(http__error={"rate": 1.0, "limit": 3})
        fires = [policy.fires("http.error") for _ in range(10)]
        assert sum(s is not None for s in fires) == 3
        assert fires[3:] == [None] * 7
        assert policy.counts()["fired"]["http.error"] == 3

    def test_unconfigured_site_never_draws(self):
        policy = _policy(http__error={"rate": 1.0})
        assert policy.fires("fs.enospc") is None
        assert "fs.enospc" not in policy.counts()["draws"]

    def test_json_roundtrip(self):
        policy = _policy(
            seed=7, http__error={"rate": 0.3, "retry_after": 0.1,
                                 "status": 502},
            fs__torn={"rate": 0.2, "limit": 3})
        clone = ChaosPolicy.from_json(policy.to_json())
        assert clone.to_json() == policy.to_json()
        assert clone.seed == 7

    @pytest.mark.parametrize("doc", [
        "not a dict",
        {"sites": "not a dict"},
        {"sites": {"http.error": "no rate"}},
        {"sites": {"no.such.site": {"rate": 0.5}}},
        {"sites": {"http.error": {"rate": 2.0}}},
        {"sites": {"http.error": {"rate": 0.5, "bogus": 1}}},
        {"sites": {"http.error": {"rate": 0.5, "status": 200}}},
        {"seed": "nope", "sites": {}},
    ])
    def test_bad_specs_are_rejected(self, doc):
        with pytest.raises(ConfigurationError):
            ChaosPolicy.from_json(doc)

    def test_pickle_preserves_counters(self):
        policy = _policy(fs__torn={"rate": 1.0, "limit": 2})
        policy.fires("fs.torn")
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.counts() == policy.counts()
        # The clone continues the schedule where the original stood.
        assert (clone.fires("fs.torn") is None) \
            == (policy.fires("fs.torn") is None)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ChaosPolicy.load(str(tmp_path / "nope.json"))


class TestFaultyFS:
    def _write(self, tmp_path, policy, text="payload-text\n"):
        path = str(tmp_path / "out.txt")
        FaultyFS(policy).write_atomic(path, text)
        with open(path, encoding="utf-8") as fh:
            return path, fh.read()

    def test_enospc_raises_before_touching_the_path(self, tmp_path):
        policy = _policy(fs__enospc={"rate": 1.0, "limit": 1})
        path = str(tmp_path / "out.txt")
        with pytest.raises(OSError) as err:
            FaultyFS(policy).write_atomic(path, "text\n")
        assert err.value.errno == errno.ENOSPC
        assert not os.path.exists(path)
        # Past the limit, writes go through clean.
        FaultyFS(policy).write_atomic(path, "text\n")
        assert open(path).read() == "text\n"

    def test_torn_write_lands_half_the_text(self, tmp_path):
        text = "0123456789" * 4
        _, written = self._write(
            tmp_path, _policy(fs__torn={"rate": 1.0}), text)
        assert written == text[:len(text) // 2]

    def test_bitflip_corrupts_exactly_one_character(self, tmp_path):
        text = "0123456789" * 4
        _, written = self._write(
            tmp_path, _policy(fs__bitflip={"rate": 1.0}), text)
        assert len(written) == len(text)
        assert sum(a != b for a, b in zip(written, text)) == 1

    def test_fsync_lost_leaves_an_empty_file(self, tmp_path):
        path, written = self._write(
            tmp_path, _policy(fs__fsync_lost={"rate": 1.0}))
        assert written == "" and os.path.exists(path)

    def test_torn_append_drops_the_newline(self, tmp_path):
        path = str(tmp_path / "log.ndjson")
        fs = FaultyFS(_policy(fs__torn={"rate": 1.0, "limit": 1}))
        fs.append(path, '{"seq": 0}\n')
        with open(path, encoding="utf-8") as fh:
            assert not fh.read().endswith("\n")


class TestStoreUnderChaos:
    KEY = "ab" * 32

    def test_torn_object_reads_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path),
                            fs=FaultyFS(_policy(fs__torn={"rate": 1.0,
                                                          "limit": 1})))
        store.put(self.KEY, {"r": 1.5}, task="t")
        assert store.fetch(self.KEY) == (False, None)
        report = store.verify()
        assert len(report.corrupt) == 1 and not report.clean

    def test_bitflip_is_caught_by_the_content_checksum(self, tmp_path):
        store = ResultStore(str(tmp_path),
                            fs=FaultyFS(_policy(
                                fs__bitflip={"rate": 1.0, "limit": 1})))
        store.put(self.KEY, {"r": 1.5}, task="t")
        found, _ = store.fetch(self.KEY)
        report = store.verify()
        assert not found and len(report.corrupt) == 1

    def test_repair_quarantines_and_comes_back_clean(self, tmp_path):
        policy = _policy(fs__torn={"rate": 1.0, "limit": 1})
        store = ResultStore(str(tmp_path), fs=FaultyFS(policy))
        store.put(self.KEY, {"r": 1.5}, task="t")      # torn
        store.put("cd" * 32, {"r": 2.5}, task="t")     # clean
        report = store.verify(repair=True)
        assert report.repaired
        assert len(report.quarantined) == 1
        assert all(path.startswith(store.quarantine_dir)
                   for path in report.quarantined)
        after = store.verify()
        assert after.clean and after.ok == 1
        # The quarantined key is an honest miss; a re-put heals it.
        store.put(self.KEY, {"r": 1.5}, task="t")
        assert store.fetch(self.KEY) == (True, {"r": 1.5})

    def test_execute_point_degrades_on_enospc(self, tmp_path):
        store = ResultStore(str(tmp_path),
                            fs=FaultyFS(_policy(
                                fs__enospc={"rate": 1.0})))
        outcome = execute_point(lambda params, budget: {"v": params["i"]},
                                "p0", {"i": 1}, BUDGET, store=store)
        assert outcome.ok and outcome.result == {"v": 1}
        assert outcome.degraded and not outcome.cached
        assert store.stats().entries == 0

    def test_writable_probe_sees_a_full_disk(self, tmp_path):
        store = ResultStore(str(tmp_path),
                            fs=FaultyFS(_policy(
                                fs__enospc={"rate": 1.0, "limit": 1})))
        assert not store.writable()
        assert store.writable()  # past the limit


class TestRetryingClient:
    def _failing_client(self, fail_times, status=503, retry_after=None,
                        retries=4):
        """A client whose transport fails ``fail_times`` then succeeds."""
        sleeps = []
        client = ServiceClient("http://invalid.test", retries=retries,
                               backoff=0.1, backoff_cap=2.0, seed=1,
                               sleep=sleeps.append)
        calls = {"n": 0}

        def fake_once(method, path, body=None):
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise ServiceError("injected", status=status,
                                   retry_after=retry_after)
            return b'{"ok": true}\n'

        client._request_once = fake_once
        return client, sleeps, calls

    def test_retries_transient_5xx_with_jittered_backoff(self):
        client, sleeps, calls = self._failing_client(3)
        assert client._request_json("GET", "/x") == {"ok": True}
        assert calls["n"] == 4
        # Full jitter: each delay inside [0, min(cap, base * 2^n)].
        for attempt, delay in enumerate(sleeps):
            assert 0.0 <= delay <= min(2.0, 0.1 * 2 ** attempt)

    def test_retry_after_overrides_the_jitter(self):
        client, sleeps, _ = self._failing_client(2, retry_after=0.7)
        client._request("GET", "/x")
        assert sleeps == [0.7, 0.7]

    def test_retry_after_is_capped(self):
        client, sleeps, _ = self._failing_client(1, retry_after=900.0)
        client._request("GET", "/x")
        assert sleeps == [client.backoff_cap]

    def test_4xx_is_never_retried(self):
        client, sleeps, calls = self._failing_client(5, status=400)
        with pytest.raises(ServiceError):
            client._request("GET", "/x")
        assert calls["n"] == 1 and sleeps == []

    def test_exhausted_retries_raise(self):
        client, _, calls = self._failing_client(99, retries=2)
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/x")
        assert err.value.status == 503
        assert calls["n"] == 3  # 1 try + 2 retries

    def test_wait_sleeps_out_an_early_non_terminal_answer(self):
        # The only pacing left in wait(): a non-terminal answer that
        # arrives before the hold it asked for is followed by a sleep
        # for the remainder — and a terminal one by none at all.
        sleeps, holds = [], []
        client = ServiceClient("http://invalid.test", timeout=30.0,
                               sleep=sleeps.append)
        snapshots = iter([{"state": "queued"}] * 3
                         + [{"state": "done"}])

        def job(jid, wait=None):
            holds.append(wait)
            return next(snapshots)

        client.job = job
        assert client.wait("j", timeout=600)["state"] == "done"
        assert holds == [10.0] * 4  # LONG_POLL_S, under timeout / 2
        assert len(sleeps) == 3
        assert all(9.0 < s <= 10.0 for s in sleeps)


class TestServiceUnderChaos:
    """Live daemon + seeded adversary: the end-to-end contract."""

    def test_submit_and_wait_is_byte_identical_under_chaos(self,
                                                           tmp_path):
        policy = _policy(
            seed=11,
            http__delay={"rate": 0.3, "limit": 2, "delay_s": 0.01},
            http__drop={"rate": 0.5, "limit": 2},
            http__error={"rate": 0.5, "limit": 3, "retry_after": 0.01},
            http__truncate={"rate": 0.5, "limit": 2},
            fs__enospc={"rate": 0.5, "limit": 1},
            fs__torn={"rate": 0.5, "limit": 1},
            fs__bitflip={"rate": 0.5, "limit": 1})
        # The chaotic fs wraps the *result store* only: store damage
        # must surface as misses/degraded points, never in the result
        # document (job persistence keeps its own durability story,
        # tested separately).
        service = _service(tmp_path, store_fs=FaultyFS(policy))
        server = serve_background(service, chaos=policy)
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               timeout=60.0, retries=8, backoff=0.01,
                               backoff_cap=0.05, seed=1)
        try:
            raw = client.submit_and_wait(_sweep_spec(), timeout=90)
        finally:
            server.close()
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert raw == render_result(curve.to_json()).encode()
        # The adversary was real: faults actually fired.
        assert sum(policy.counts()["fired"].values()) > 0
        assert service.stats()["counters"]["waits"] >= 1

    def test_lost_long_polls_are_retried_to_the_same_bytes(self,
                                                           tmp_path):
        # Arm the adversary only after the submit, so every fault
        # lands on the long-poll: the first is delayed then dropped,
        # its retry is held until the job is done and then truncated,
        # the third gets through. A long-poll is an idempotent GET.
        policy = _policy(
            http__delay={"rate": 1.0, "limit": 1, "delay_s": 0.01},
            http__drop={"rate": 1.0, "limit": 1},
            http__truncate={"rate": 1.0, "limit": 1})
        service = _service(tmp_path)
        server = serve_background(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               timeout=60.0, retries=4, backoff=0.01,
                               backoff_cap=0.05, seed=1)
        try:
            jid = client.submit(_sweep_spec())["id"]
            server.chaos = policy
            snapshot = client.wait(jid, timeout=90)
            server.chaos = None
            raw = client.result_bytes(jid)
        finally:
            server.close()
        assert snapshot["state"] == "done"
        assert policy.counts()["fired"] == {
            "http.delay": 1, "http.drop": 1, "http.truncate": 1}
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert raw == render_result(curve.to_json()).encode()

    def test_a_dropped_kept_alive_connection_is_replaced(self, tmp_path):
        service = _service(tmp_path)
        server = serve_background(service)
        accepted = []
        accept = server.get_request
        server.get_request = lambda: accepted.append(1) or accept()
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               retries=4, backoff=0.01, seed=1)
        try:
            assert client.stats()["counters"]["submitted"] == 0
            # The daemon closes the kept-alive connection on the next
            # request without answering; the retry connects afresh.
            server.chaos = _policy(http__drop={"rate": 1.0, "limit": 1})
            assert client.stats()["counters"]["submitted"] == 0
            assert server.chaos.counts()["fired"] == {"http.drop": 1}
            assert client.health()["ok"]
        finally:
            server.close()
        assert len(accepted) == 2

    def test_lost_submit_response_coalesces_on_retry(self, tmp_path):
        # The daemon acts, the response is lost (truncated body), the
        # client retries: at-least-once delivery must coalesce onto
        # the already-queued job, never duplicate it.
        policy = _policy(http__truncate={"rate": 1.0, "limit": 1})
        service = _service(tmp_path)  # not started: jobs stay queued
        server = serve_background(service, chaos=policy)
        service.stop()  # serve_background starts it; park the queue
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               retries=4, backoff=0.01, seed=1)
        try:
            job = client.submit(_sweep_spec())
            assert job["id"] == job_id(_sweep_spec())
            counters = client.stats()["counters"]
        finally:
            server.close()
        assert counters["submitted"] == 2
        assert counters["coalesced"] == 1
        assert len(service.list_jobs()) == 1

    def test_health_detail_and_unready_retry_after(self, tmp_path):
        service = _service(tmp_path)
        server = serve_background(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               retries=0)
        try:
            health = client.health()
            assert health["ok"] and health["dispatcher_alive"]
            assert health["store_writable"]
            assert health["queue_depth"] == 0
            service.stop()  # dead dispatcher: probe flips unhealthy
            assert not client.healthz()
            with pytest.raises(ServiceError) as err:
                client.health()
            assert err.value.status == 503
            # A queued job's result answers 409 with a pacing hint.
            job = client.submit(_sweep_spec())
            with pytest.raises(ServiceError) as err:
                client.result_bytes(job["id"])
            assert err.value.status == 409
            assert err.value.retry_after == 1.0
        finally:
            server.close()

    def test_jobs_state_filter_rejects_unknown_states(self, tmp_path):
        service = _service(tmp_path)
        server = serve_background(service)
        service.stop()
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               retries=0)
        try:
            client.submit(_sweep_spec())
            assert client.jobs(state="queued") != []
            assert client.jobs(state="dead") == []
            with pytest.raises(ServiceError) as err:
                client.jobs(state="zombie")
            assert err.value.status == 400
        finally:
            server.close()


class TestLeases:
    def _orphan(self, tmp_path, attempts=1):
        """Log a running job whose daemon has vanished: its last
        transition line is the ``started`` one."""
        spec = _sweep_spec()
        job = Job(id=job_id(spec), spec=spec,
                  created=round(time.time(), 3))
        store = JobStore(str(tmp_path / "jobs"))
        store.save(job, {"event": "queued"})
        job.state, job.total = "running", len(RATES)
        job.runs = job.attempts = attempts
        store.save(job, {"event": "started", "total": job.total,
                         "run": job.runs, "attempt": job.attempts})
        return job

    def test_startup_takes_over_an_expired_lease(self, tmp_path):
        self._orphan(tmp_path)
        service = _service(tmp_path)
        service.start()
        try:
            job = _wait(service, job_id(_sweep_spec()))
            assert job.state == "done"
            assert job.attempts == 2  # orphaned run + the takeover run
        finally:
            service.stop()
        assert service.stats()["counters"]["takeovers"] == 1
        events = [e["event"] for e in service.events(job.id)]
        assert "takeover" in events
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert service.result_bytes(job.id) \
            == render_result(curve.to_json()).encode()

    def test_takeover_reruns_against_the_store(self, tmp_path):
        # In-process twin of TestDaemonSigkill: the dead daemon had
        # finished (and stored) the first grid point when it vanished.
        store = ResultStore(str(tmp_path / "cache"))
        sweep_rate_delay("vegas", RATES[:1], units.ms(40.0),
                         duration=3.0, seed=3, budget=BUDGET, store=store)
        orphan = self._orphan(tmp_path)
        service = _service(tmp_path)
        service.start()
        try:
            job = _wait(service, orphan.id)
        finally:
            service.stop()
        assert job.state == "done"
        # The store is the only resume mechanism: the finished point is
        # a hit, the rest simulate once, nothing else is left behind.
        assert (job.cached, job.done) == (1, len(RATES) - 1)
        assert "checkpoint.json" not in os.listdir(
            service.job_store.job_dir(job.id))
        assert store.catalog.counts() == {"miss": len(RATES), "hit": 1}
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert service.result_bytes(job.id) \
            == render_result(curve.to_json()).encode()

    def test_live_looking_lease_is_taken_over_at_startup(self, tmp_path):
        # A snapshot logged before the job directory was locked: its
        # lease stamp still looks live, but no daemon can hold the
        # directory's lock beside this one, so the job is orphaned.
        snapshot = self._orphan(tmp_path).to_json()
        snapshot["lease"] = {"owner": "dead-daemon.feedface",
                             "expires": round(time.time() + 120, 3)}
        jobs = JobStore(str(tmp_path / "jobs"))
        with open(os.path.join(jobs.job_dir(snapshot["id"]),
                               "events.ndjson"),
                  "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seq": 2, "event": "started",
                                 "job": snapshot}) + "\n")
        service = _service(tmp_path)
        service.start()
        try:
            job = _wait(service, snapshot["id"])
        finally:
            service.stop()
        assert job.state == "done"
        assert job.attempts == 2
        assert "lease" not in service.snapshot(job.id)
        assert service.stats()["counters"]["takeovers"] == 1

    def test_exhausted_attempts_dead_letter_the_job(self, tmp_path):
        self._orphan(tmp_path, attempts=2)
        service = _service(tmp_path, max_attempts=2)
        service.start()
        try:
            job = _wait(service, job_id(_sweep_spec()))
        finally:
            service.stop()
        assert job.state == "dead"
        assert "max_attempts" in job.error
        assert service.stats()["counters"]["dead"] == 1
        # Dead is terminal but not final: a resubmit grants a fresh
        # attempt budget and the job runs to completion.
        service2 = _service(tmp_path, max_attempts=2)
        service2.start()
        try:
            resubmitted = service2.submit(_sweep_spec())
            assert resubmitted.attempts == 0
            assert _wait(service2, resubmitted.id).state == "done"
        finally:
            service2.stop()


class TestDegradedService:
    def test_enospc_degrades_to_no_cache(self, tmp_path):
        # Chaotic result store, clean job store: the sweep completes
        # correctly, nothing lands in the cache, and the job says so.
        policy = _policy(fs__enospc={"rate": 1.0})
        service = _service(tmp_path, store_fs=FaultyFS(policy))
        service.start()
        try:
            job = _wait(service, service.submit(_sweep_spec()).id)
        finally:
            service.stop()
        assert job.state == "done"
        assert job.degraded
        assert job.done == len(RATES) and job.cached == 0
        assert service.store.stats().entries == 0
        stats = service.stats()
        assert stats["counters"]["degraded"] == 1
        events = service.events(job.id)
        assert any(e.get("degraded") for e in events
                   if e["event"] == "point")
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert service.result_bytes(job.id) \
            == render_result(curve.to_json()).encode()

    def test_job_persistence_faults_flag_degraded(self, tmp_path):
        # ENOSPC on *job* persistence after the durable submit ack:
        # the in-memory queue stays authoritative, the job completes,
        # and the snapshot gap is flagged.
        policy = _policy(seed=5, fs__enospc={"rate": 0.4, "limit": 4})
        service = _service(tmp_path, fs=FaultyFS(policy))
        service.start()
        try:
            job = _wait(service, service.submit(_sweep_spec()).id)
        finally:
            service.stop()
        assert job.state == "done"
        assert service.result_bytes(job.id) is not None


class TestTornEventSeal:
    def test_torn_trailing_line_is_sealed_on_next_append(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.append_event("ab12", {"event": "queued"})
        path = os.path.join(store.job_dir("ab12"), "events.ndjson")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 1, "event": "poi')  # killed mid-append
        # A cold reader skips the torn line instead of choking.
        fresh = JobStore(str(tmp_path))
        assert [e["event"] for e in fresh.events("ab12")] == ["queued"]
        # The next append welds a newline onto the torn tail first, so
        # the new record is intact and the torn line stays dead.
        fresh.append_event("ab12", {"event": "done"})
        events = list(fresh.events("ab12"))
        assert [e["event"] for e in events] == ["queued", "done"]
        with open(path, encoding="utf-8") as fh:
            assert fh.read().endswith("\n")


class _FailingSwapFS(FileIO):
    """Fails the next atomic write of a job log once armed: the fault
    that hits a resubmit just before its fresh log swaps in."""

    armed = False

    def write_atomic(self, path, text, prefix=".tmp-"):
        if self.armed and os.path.basename(path) == "events.ndjson":
            self.armed = False
            raise OSError(errno.EIO, "injected swap fault", path)
        super().write_atomic(path, text, prefix=prefix)


class TestJobLog:
    """``events.ndjson`` is the job's one durable record: every state
    transition line carries the job's snapshot."""

    def _log(self, tmp_path, jid):
        return os.path.join(str(tmp_path / "jobs"), jid, "events.ndjson")

    def test_restarted_daemon_resumes_queued_jobs_from_the_log(
            self, tmp_path):
        first = _service(tmp_path)  # never started: the job stays queued
        jid = first.submit(_sweep_spec()).id
        assert os.listdir(first.job_store.job_dir(jid)) == ["events.ndjson"]
        service = _service(tmp_path)
        service.start()
        try:
            job = _wait(service, jid)
        finally:
            service.stop()
        assert job.state == "done" and job.attempts == 1
        assert [e["event"] for e in service.events(jid)][:3] == \
            ["queued", "started", "point"]
        assert JobStore(str(tmp_path / "jobs")).load(jid).state == "done"

    @pytest.mark.parametrize("max_attempts,state,attempts",
                             [(3, "done", 3), (2, "dead", 2)])
    def test_running_job_is_taken_over_with_attempts_from_started_line(
            self, tmp_path, max_attempts, state, attempts):
        spec = _sweep_spec()
        jid = job_id(spec)
        started = Job(id=jid, spec=spec, state="running",
                      created=round(time.time(), 3), total=len(RATES),
                      runs=2, attempts=2).to_json()
        # What a daemon killed mid-run leaves: its queued line, the
        # started line of its second attempt, one point line.
        os.makedirs(os.path.dirname(self._log(tmp_path, jid)))
        with open(self._log(tmp_path, jid), "w", encoding="utf-8") as fh:
            for doc in ({"seq": 0, "event": "queued",
                         "job": {**started, "state": "queued",
                                 "attempts": 0, "runs": 1}},
                        {"seq": 1, "event": "started", "total": 2,
                         "run": 2, "attempt": 2, "job": started},
                        {"seq": 2, "event": "point", "key": "k",
                         "status": "ok"}):
                fh.write(json.dumps(doc) + "\n")
        service = _service(tmp_path, max_attempts=max_attempts)
        service.start()
        try:
            job = _wait(service, jid)
        finally:
            service.stop()
        assert (job.state, job.attempts) == (state, attempts)
        events = service.events(jid)
        assert events[3] == {"seq": 3, "ts": events[3]["ts"],
                             "event": "takeover", "attempts": 2}
        assert events[-1]["event"] == state
        reloaded = JobStore(str(tmp_path / "jobs")).load(jid)
        assert (reloaded.state, reloaded.attempts) == (state, attempts)

    def test_torn_final_transition_line_yields_the_previous_state(
            self, tmp_path):
        store = JobStore(str(tmp_path / "jobs"))
        job = Job(id=job_id(_sweep_spec()), spec=_sweep_spec())
        store.save(job, {"event": "queued"})
        job.state, job.total, job.attempts = "running", 2, 1
        store.save(job, {"event": "started"})
        job.state = "done"
        line = json.dumps({"seq": 2, "event": "done",
                           "job": job.to_json()})
        with open(self._log(tmp_path, job.id), "a",
                  encoding="utf-8") as fh:
            fh.write(line[:len(line) // 2])  # killed mid-append
        fresh = JobStore(str(tmp_path / "jobs"))
        assert fresh.load(job.id).state == "running"
        assert [j.state for j in fresh.load_all()] == ["running"]
        assert [e["event"] for e in fresh.events(job.id)] == \
            ["queued", "started"]

    def test_enospc_on_submit_is_a_503_and_registers_nothing(
            self, tmp_path):
        policy = _policy(fs__enospc={"rate": 1.0, "limit": 1})
        service = _service(tmp_path, fs=FaultyFS(policy))
        server = serve_background(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               retries=0)
        try:
            with pytest.raises(ServiceError) as err:
                client.submit(_sweep_spec())
            assert err.value.status == 503
            assert service.get(job_id(_sweep_spec())) is None
            assert client.jobs() == []
            assert not os.path.exists(
                self._log(tmp_path, job_id(_sweep_spec())))
            # The fault is spent: the retry is accepted and runs.
            jid = client.submit(_sweep_spec())["id"]
            assert client.wait(jid, timeout=90)["state"] == "done"
        finally:
            server.close()
        assert sorted(os.listdir(service.job_store.job_dir(jid))) == \
            ["events.ndjson", "result.json"]

    def test_resubmit_survives_a_fault_before_its_log_swap(self,
                                                          tmp_path):
        fs = _FailingSwapFS()
        service = _service(tmp_path, fs=fs)
        service.start()
        try:
            jid = _wait(service, service.submit(_sweep_spec()).id).id
        finally:
            service.stop()  # no dispatcher appends behind the checks
        before = service.events(jid)
        result = service.result_bytes(jid)
        fs.armed = True
        with pytest.raises(OSError):
            service.submit(_sweep_spec())
        # In memory the resubmit stands queued, flagged degraded...
        job = service.get(jid)
        assert (job.state, job.degraded) == ("queued", True)
        # ...and on disk the old record stands whole: a daemon that
        # died here comes back to the finished job and its events.
        restarted = _service(tmp_path)
        restarted.start()
        try:
            assert restarted.snapshot(jid)["state"] == "done"
            assert restarted.events(jid) == before
            assert restarted.result_bytes(jid) == result
        finally:
            restarted.stop()


def _repo_env():
    """The environment a ``repro`` subprocess imports this tree under."""
    repo_src = os.path.join(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ,
            "PYTHONPATH": repo_src + os.pathsep
            + os.environ.get("PYTHONPATH", "")}


def _spawn_daemon(tmp_path, env, *flags):
    """Start ``repro serve`` over ``tmp_path``; returns it and a client."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--job-dir", str(tmp_path / "jobs"),
         "--cache-dir", str(tmp_path / "cache"),
         "--port", "0", *flags],
        stdout=subprocess.PIPE, text=True, env=env)
    port = None
    for _ in range(20):
        line = proc.stdout.readline()
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    assert port, "daemon never printed its port"
    return proc, ServiceClient(f"http://127.0.0.1:{port}",
                               timeout=30.0, retries=6,
                               backoff=0.05, seed=1)


def _children(pid):
    """The pids whose parent is ``pid`` (read from Linux ``/proc``)."""
    found = []
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # not a process, or it just exited
        if int(fields[1]) == pid:
            found.append(int(name))
    return found


def _running(pid):
    """Whether ``pid`` is a live process (not gone, not a zombie)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class TestOneDaemonPerJobDir:
    def test_second_service_on_a_held_job_dir_is_refused(self, tmp_path):
        first = _service(tmp_path)
        first.start()
        try:
            with pytest.raises(ServiceError, match="in use"):
                _service(tmp_path).start()
            # The lock is on the directory itself: no lock file.
            assert os.listdir(first.job_store.root) == []
        finally:
            first.stop()
        second = _service(tmp_path)
        second.start()
        second.stop()

    def test_second_serve_exits_before_binding(self, tmp_path):
        env = _repo_env()
        proc, client = _spawn_daemon(tmp_path, env)
        try:
            began = time.monotonic()
            refused = subprocess.run(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--job-dir", str(tmp_path / "jobs"),
                 "--cache-dir", str(tmp_path / "cache2"), "--port", "0"],
                env=env, capture_output=True, text=True, timeout=30)
            assert refused.returncode != 0
            assert time.monotonic() - began < 10
            assert "listening on" not in refused.stdout
            lines = refused.stderr.splitlines()
            assert len(lines) == 1
            assert str(tmp_path / "jobs") in lines[0]
            assert client.healthz()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


@pytest.mark.slow
class TestDaemonSigkill:
    """The headline robustness property, end to end over the CLI.

    SIGKILL a daemon mid-sweep at a seeded point boundary; a restarted
    daemon must take the job directory over, re-run the job against
    the store (zero re-simulated points — the catalog can only show
    one ``miss`` per grid point), and produce ``result.json`` bytes
    identical to ``repro sweep --json`` run locally. The second case
    runs with a worker pool: its spawned workers must not keep the
    killed daemon's lock on the job directory, and must exit once the
    daemon is gone.
    """

    #: Heavy enough that each point takes seconds of wall clock — the
    #: SIGKILL must reliably land *mid-sweep*, not after completion.
    RATES = [20.0, 35.0, 50.0]
    DURATION = 60.0

    @pytest.mark.parametrize("kill_after_points", [1, 2])
    def test_sigkill_restart_resumes_from_checkpoint(
            self, tmp_path, kill_after_points):
        env = _repo_env()
        flags = ("--jobs", "2") if kill_after_points == 2 else ()
        spec = JobSpec.sweep("vegas", self.RATES, 40.0,
                             duration=self.DURATION, seed=3)
        proc, client = _spawn_daemon(tmp_path, env, *flags)
        try:
            jid = client.submit(spec)["id"]
            deadline = time.monotonic() + 90
            while time.monotonic() < deadline:
                points = [e for e in client.events(jid)
                          if e["event"] == "point"]
                if len(points) >= kill_after_points:
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("daemon never reported progress")
        finally:
            # Pool workers watch their parent and exit once it is gone,
            # so none finishes its point a second time (a second
            # ``miss``) or blocks on the dead daemon's queue forever.
            orphans = _children(proc.pid)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            proc.stdout.close()

        proc2, client2 = _spawn_daemon(tmp_path, env, *flags)
        assert orphans or not flags, "the pool's workers were not found"
        try:
            snapshot = client2.wait(jid, timeout=120)
            assert snapshot["state"] == "done"
            raw = client2.result_bytes(jid)
            events = [e["event"] for e in client2.events(jid)]
            assert "takeover" in events
        finally:
            proc2.terminate()
            proc2.wait(timeout=10)
            proc2.stdout.close()
        deadline = time.monotonic() + 10
        while any(map(_running, orphans)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in orphans if _running(pid)]

        ref_path = str(tmp_path / "ref.json")
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep",
             "--cca", "vegas",
             "--rates", ",".join(str(r) for r in self.RATES),
             "--rm", "40", "--duration", str(self.DURATION),
             "--seed", "3",
             "--json", ref_path],
            check=True, env=env, capture_output=True, timeout=300)
        with open(ref_path, "rb") as fh:
            assert raw == fh.read()
        # Finished points are store hits, not re-executions: every grid
        # point was simulated exactly once across both daemon lifetimes.
        store = ResultStore(str(tmp_path / "cache"))
        assert store.catalog.counts().get("miss", 0) == len(self.RATES)
