"""Tests for the content-addressed experiment store (repro.store)."""

import os

import pytest

from repro.analysis.backends import (ProcessPoolBackend, SerialBackend,
                                     cached_outcomes, execute_point)
from repro.analysis.harness import ResilientSweep, RunBudget
from repro.errors import ConfigurationError, SimulationError
from repro.store import (Catalog, ResultStore, cache_key, canonical_json,
                         code_fingerprint, point_cache_key,
                         summarize_params, task_name)


# Module-level workers: picklable by qualified name for the spawn pool.

def cube_point(params, budget):
    return {"value": params["x"] ** 3}


def always_fails(params, budget):
    raise SimulationError("diverged")


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "cache"))


class TestKeys:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == \
            canonical_json({"a": [1, 2], "b": 1})

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_canonical_json_handles_infinity(self):
        # Fault windows use unbounded horizons; keys must not choke.
        text = canonical_json({"end": float("inf")})
        assert "Infinity" in text

    def test_canonical_json_rejects_non_json(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"f": lambda: None})

    def test_cache_key_is_stable_across_dict_order(self):
        a = cache_key("t", {"x": 1, "y": 2})
        b = cache_key("t", {"y": 2, "x": 1})
        assert a == b
        assert len(a) == 64
        assert all(c in "0123456789abcdef" for c in a)

    def test_cache_key_varies_with_params_task_fingerprint(self):
        base = cache_key("t", {"x": 1})
        assert cache_key("t", {"x": 2}) != base
        assert cache_key("other", {"x": 1}) != base
        assert cache_key("t", {"x": 1}, fingerprint="old") != base

    def test_fingerprint_embeds_version(self):
        import repro
        assert f"repro={repro.__version__}" in code_fingerprint()
        assert "spec=" in code_fingerprint()
        assert "store=" in code_fingerprint()

    def test_task_name_identifies_worker(self):
        name = task_name(cube_point)
        assert name.endswith(":cube_point")
        assert "test_store" in name

    def test_point_cache_key_matches_cache_key(self):
        params = {"x": 3}
        assert point_cache_key(cube_point, params) == \
            cache_key(task_name(cube_point), params)


class TestResultStore:
    def test_put_get_roundtrip(self, store):
        key = cache_key("t", {"x": 1})
        store.put(key, {"v": 42}, meta={"point": "p1"}, task="t")
        assert store.contains(key)
        assert key in store
        assert store.get(key) == {"v": 42}

    def test_fetch_distinguishes_none_results(self, store):
        key = cache_key("t", {"x": 2})
        store.put(key, None)
        assert store.fetch(key) == (True, None)

    def test_miss_on_absent_key(self, store):
        assert store.fetch(cache_key("t", {})) == (False, None)
        assert store.get(cache_key("t", {}), default="d") == "d"

    def test_sharded_layout(self, store):
        key = cache_key("t", {"x": 3})
        path = store.put(key, 1)
        assert os.path.relpath(path, store.root) == \
            os.path.join("objects", key[:2], f"{key}.json")

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.path_for("../escape")

    def test_corrupt_entry_is_a_miss_not_a_crash(self, store):
        key = cache_key("t", {"x": 4})
        path = store.put(key, {"v": 1})
        with open(path, "w") as fh:
            fh.write('{"truncated": ')
        assert not store.contains(key)
        assert store.get(key) is None

    def test_key_mismatch_is_a_miss(self, store):
        key_a = cache_key("t", {"x": 5})
        key_b = cache_key("t", {"x": 6})
        store.put(key_a, {"v": 1})
        # Copy A's entry to B's address: the embedded key betrays it.
        os.makedirs(os.path.dirname(store.path_for(key_b)), exist_ok=True)
        with open(store.path_for(key_a)) as src:
            with open(store.path_for(key_b), "w") as dst:
                dst.write(src.read())
        assert store.contains(key_a)
        assert not store.contains(key_b)

    def test_overwrite_replaces(self, store):
        key = cache_key("t", {"x": 7})
        store.put(key, {"v": 1})
        store.put(key, {"v": 2})
        assert store.get(key) == {"v": 2}

    def test_unserializable_result_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.put(cache_key("t", {}), {"f": object()})

    def test_keys_and_entries(self, store):
        keys = [cache_key("t", {"x": i}) for i in range(3)]
        for i, key in enumerate(keys):
            store.put(key, i, meta={"point": f"p{i}"}, task="tsk")
        assert sorted(store.keys()) == sorted(keys)
        entries = list(store.entries())
        assert len(entries) == 3
        assert {e["task"] for e in entries} == {"tsk"}
        assert all(e["bytes"] > 0 for e in entries)

    def test_pickles_without_handles(self, store):
        import pickle
        store.put(cache_key("t", {"x": 1}), 1)
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get(cache_key("t", {"x": 1})) == 1
        assert clone.fingerprint == store.fingerprint


class TestVerifyAndGc:
    def _corrupt_and_orphan(self, store):
        good = cache_key("t", {"x": 1})
        bad = cache_key("t", {"x": 2})
        store.put(good, {"v": 1})
        bad_path = store.put(bad, {"v": 2})
        with open(bad_path, "w") as fh:
            fh.write("not json at all")
        # Simulate a killed worker's partial write.
        shard = os.path.dirname(bad_path)
        tmp = os.path.join(shard, ".tmp-killed.json")
        with open(tmp, "w") as fh:
            fh.write('{"version": 1, "key": "')
        return good, bad, tmp

    def test_verify_detects_partial_and_corrupt(self, store):
        good, bad, tmp = self._corrupt_and_orphan(store)
        report = store.verify()
        assert not report.clean
        assert report.ok == 1
        assert report.checked == 2
        assert report.corrupt == [store.path_for(bad)]
        assert report.temp == [tmp]

    def test_gc_collects_what_verify_flags(self, store):
        good, bad, tmp = self._corrupt_and_orphan(store)
        report = store.gc()
        assert report.removed_corrupt == 1
        assert report.removed_temp == 1
        assert report.bytes_freed > 0
        assert report.kept == 1
        assert store.verify().clean
        assert store.contains(good)
        assert not store.contains(bad)

    def test_stats(self, store):
        store.put(cache_key("t", {"x": 1}), {"v": 1})
        store.catalog.record("ab" * 32, "miss")
        store.catalog.record("ab" * 32, "hit")
        stats = store.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0
        assert stats.events == {"miss": 1, "hit": 1}
        assert stats.hit_rate == pytest.approx(0.5)

    def test_empty_store_stats_and_verify(self, store):
        assert store.stats().entries == 0
        assert store.stats().hit_rate == 0.0
        assert store.verify().clean
        assert store.gc().kept == 0


class TestVerifyRepair:
    def test_checksum_catches_valid_json_corruption(self, store):
        """A flipped value that keeps the JSON parseable still fails."""
        key = cache_key("t", {"x": 1})
        path = store.put(key, {"v": 1.5})
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace("1.5", "2.5"))
        assert store.fetch(key) == (False, None)
        report = store.verify()
        assert report.corrupt == [path]

    def test_legacy_entries_without_check_stay_valid(self, store):
        """Pre-checksum entries (no ``check`` field) still read back."""
        import json
        key = cache_key("t", {"x": 1})
        path = store.put(key, {"v": 1})
        with open(path) as fh:
            doc = json.load(fh)
        del doc["check"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert store.fetch(key) == (True, {"v": 1})
        assert store.verify().clean

    def test_repair_quarantines_everything_flagged(self, store):
        good = cache_key("t", {"x": 1})
        bad = cache_key("t", {"x": 2})
        store.put(good, {"v": 1})
        bad_path = store.put(bad, {"v": 2})
        with open(bad_path, "w") as fh:
            fh.write("not json at all")
        tmp = os.path.join(os.path.dirname(bad_path), ".tmp-killed.json")
        with open(tmp, "w") as fh:
            fh.write('{"version": 1, "key": "')
        report = store.verify(repair=True)
        assert report.repaired
        assert len(report.quarantined) == 2
        assert all(os.path.exists(path)
                   for path in report.quarantined)  # evidence preserved
        assert not os.path.exists(bad_path) and not os.path.exists(tmp)
        after = store.verify()
        assert after.clean and after.ok == 1
        assert store.contains(good) and not store.contains(bad)

    def test_repair_names_survive_collisions(self, store):
        """Re-corrupting the same key twice never overwrites evidence."""
        key = cache_key("t", {"x": 1})
        for round_ in range(2):
            path = store.put(key, {"v": round_})
            with open(path, "w") as fh:
                fh.write("garbage")
            assert len(store.verify(repair=True).quarantined) == 1
        names = sorted(os.listdir(store.quarantine_dir))
        assert len(names) == 2
        assert names[1] == names[0] + ".1"

    def test_repair_on_clean_store_is_a_no_op(self, store):
        store.put(cache_key("t", {"x": 1}), {"v": 1})
        report = store.verify(repair=True)
        assert report.repaired and report.quarantined == []
        assert store.verify().clean

    def test_repair_seals_a_torn_catalog_tail(self, store):
        store.catalog.record("ab" * 32, "miss")
        with open(store.catalog.path, "a") as fh:
            fh.write('{"key": "cd')  # killed mid-append
        store.verify(repair=True)
        with open(store.catalog.path) as fh:
            assert fh.read().endswith("\n")
        store.catalog.record("ef" * 32, "hit")
        assert store.catalog.counts() == {"miss": 1, "hit": 1}


class TestCatalog:
    def test_record_and_entries(self, tmp_path):
        catalog = Catalog(str(tmp_path / "c.jsonl"))
        catalog.record("k1", "miss", task="t", backend="serial",
                       wall_s=0.5, summary={"cca": "bbr"})
        catalog.record("k1", "hit", task="t", backend="process-pool")
        entries = list(catalog.entries())
        assert [e["event"] for e in entries] == ["miss", "hit"]
        assert entries[0]["summary"]["cca"] == "bbr"
        assert catalog.counts() == {"miss": 1, "hit": 1}

    def test_rejects_unknown_event(self, tmp_path):
        with pytest.raises(ValueError):
            Catalog(str(tmp_path / "c.jsonl")).record("k", "yolo")

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        catalog = Catalog(str(path))
        catalog.record("k1", "miss")
        with open(path, "a") as fh:
            fh.write('{"torn": \n')
        catalog.record("k2", "hit")
        assert [e["key"] for e in catalog.entries()] == ["k1", "k2"]

    def test_truncated_trailing_line_sealed_on_next_append(self,
                                                           tmp_path):
        # A writer killed mid-append leaves a torn final line with no
        # trailing newline. The next record() must seal it instead of
        # welding the new record onto the garbage — only the torn line
        # may be lost.
        path = tmp_path / "c.jsonl"
        catalog = Catalog(str(path))
        catalog.record("k1", "miss")
        with open(path, "a") as fh:
            fh.write('{"key": "torn", "eve')  # no newline: torn write
        catalog.record("k2", "hit")
        assert [e["key"] for e in catalog.entries()] == ["k1", "k2"]
        assert catalog.counts() == {"miss": 1, "hit": 1}

    def test_append_to_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.touch()
        catalog = Catalog(str(path))
        catalog.record("k1", "miss")
        assert [e["key"] for e in catalog.entries()] == ["k1"]

    def test_missing_file_is_empty(self, tmp_path):
        assert list(Catalog(str(tmp_path / "nope.jsonl")).entries()) == []
        assert Catalog(str(tmp_path / "nope.jsonl")).counts() == {}

    def test_query_by_cca_rate_jitter(self, tmp_path):
        catalog = Catalog(str(tmp_path / "c.jsonl"))
        catalog.record("k1", "miss", summary={
            "cca": "bbr", "rate_mbps": 2.0, "elements": []})
        catalog.record("k2", "hit", summary={
            "cca": "vegas+copa", "rate_mbps": 10.0,
            "elements": ["constant_jitter"]})
        assert [e["key"] for e in catalog.query(cca="vegas")] == ["k2"]
        assert [e["key"] for e in catalog.query(rate_mbps=2.0)] == ["k1"]
        assert [e["key"] for e in
                catalog.query(element="constant_jitter")] == ["k2"]
        assert [e["key"] for e in catalog.query(event="hit")] == ["k2"]
        assert [e["key"] for e in catalog.query(cca="bbr",
                                                event="hit")] == []


class TestSummarizeParams:
    def test_sweep_point_params(self):
        from repro import units
        from repro.spec import CCASpec, single_flow_scenario
        spec = single_flow_scenario(CCASpec("bbr"), rate=units.mbps(2),
                                    rm=0.05, seed=9)
        params = {"scenario": spec.to_json(), "duration": 5.0,
                  "warmup": 2.5}
        summary = summarize_params(params)
        assert summary["cca"] == "bbr"
        assert summary["flows"] == 1
        assert summary["rate_mbps"] == pytest.approx(2.0)
        assert summary["seed"] == 9
        assert summary["duration"] == 5.0

    def test_jitter_and_fault_kinds_lifted(self):
        from repro.cli import parse_flow_spec
        from repro.spec import LinkSpec, ScenarioSpec
        flow = parse_flow_spec("copa:poison:ge0.02", rm=0.05)
        spec = ScenarioSpec(link=LinkSpec(rate=1e6), flows=(flow,))
        summary = summarize_params({"scenario": spec.to_json()})
        assert summary["elements"] == ["exempt_first_jitter",
                                       "gilbert_elliott"]

    def test_named_scenario_params(self):
        assert summarize_params({"scenario": "copa"}) == {"cca": "copa"}

    def test_garbage_degrades_to_empty(self):
        assert summarize_params({}) == {}
        assert summarize_params({"scenario": 42}) == {}
        assert summarize_params({"scenario": {"flows": 3}}) == {}


def _run(run_point, store, points=(("p", {"x": 2}),), **kwargs):
    return ResilientSweep(run_point, store=store, **kwargs).run(
        list(points))


class TestExecutePointCaching:
    """The runner reads the store before dispatch; execute_point puts."""

    def test_miss_then_hit(self, store):
        first = _run(cube_point, store)
        assert (first.hits, first.misses) == (0, 1)
        assert first.completed == {"p": {"value": 8}}
        key = point_cache_key(cube_point, {"x": 2},
                              fingerprint=store.fingerprint)
        assert store.get(key) == {"value": 8}
        second = _run(cube_point, store)
        assert (second.hits, second.misses) == (1, 0)
        assert second.completed == first.completed
        assert store.catalog.counts() == {"miss": 1, "hit": 1}
        assert {e["key"] for e in store.catalog.entries()} == {key}

    def test_failures_never_poison_the_store(self, store):
        outcome = _run(always_fails, store)
        assert outcome.failed_keys == ["p"]
        assert store.stats().entries == 0
        assert store.catalog.counts() == {"fail": 1}
        # And the failure is not served from cache next time either.
        again = _run(always_fails, store)
        assert again.failed_keys == ["p"] and again.hits == 0

    def test_refresh_recomputes_and_overwrites(self, store):
        _run(cube_point, store)
        forced = _run(cube_point, store, refresh=True)
        assert (forced.hits, forced.misses) == (0, 1)
        assert store.catalog.counts() == {"miss": 2}

    def test_no_store_keeps_legacy_shape(self):
        outcome = execute_point(cube_point, "p", {"x": 2},
                                RunBudget())
        assert outcome.ok and not outcome.cached

    def test_budget_not_part_of_key(self, store):
        _run(cube_point, store)
        again = _run(cube_point, store, budget=RunBudget(max_events=1000))
        assert again.hits == 1
        assert len({e["key"] for e in store.catalog.entries()}) == 1

    def test_execute_point_puts_without_looking_up(self, store):
        """A warm entry does not stop execute_point: it runs and puts."""
        first = execute_point(cube_point, "p", {"x": 2}, RunBudget(),
                              store=store)
        second = execute_point(cube_point, "p", {"x": 2}, RunBudget(),
                               store=store)
        assert not first.cached and not second.cached
        assert store.catalog.counts() == {"miss": 2}
        assert len({e["key"] for e in store.catalog.entries()}) == 1

    def test_cached_outcomes_splits_hits_from_misses(self, store):
        points = [(f"p{i}", {"x": i}) for i in range(4)]
        _run(cube_point, store, points[:2])
        hits, misses = cached_outcomes(cube_point, points, store)
        assert [(o.key, o.result, o.cached) for o in hits] == [
            ("p0", {"value": 0}, True), ("p1", {"value": 1}, True)]
        assert misses == points[2:]


class TestBackendsShareTheStore:
    def test_serial_populates_pool_hits(self, store):
        points = [(f"p{i}", {"x": i}) for i in range(4)]
        serial = _run(cube_point, store, points)
        assert serial.misses == 4
        pooled = _run(cube_point, store, points,
                      backend=ProcessPoolBackend(jobs=2))
        assert pooled.hits == 4
        assert pooled.completed == serial.completed

    def test_pool_populates_serial_hits(self, store):
        points = [(f"p{i}", {"x": i}) for i in range(4)]
        pooled = _run(cube_point, store, points,
                      backend=ProcessPoolBackend(jobs=2))
        assert pooled.misses == 4
        serial = _run(cube_point, store, points, backend=SerialBackend())
        assert serial.hits == 4
        counts = store.catalog.counts()
        assert counts == {"miss": 4, "hit": 4}
        # Misses are put by the pool workers; hits are read before
        # dispatch and never reach a backend.
        backends = {(e["event"], e["backend"])
                    for e in store.catalog.entries()}
        assert backends == {("miss", "process-pool"), ("hit", "store")}

    def test_half_warm_pool_is_handed_only_the_misses(self, store):
        points = [(f"p{i}", {"x": i}) for i in range(4)]
        _run(cube_point, store, points[:2])
        backend = RecordingPool(jobs=2)
        outcome = _run(cube_point, store, points, backend=backend)
        assert backend.handed == [["p2", "p3"]]
        assert (outcome.hits, outcome.misses) == (2, 2)
        assert outcome.completed == {f"p{i}": {"value": i ** 3}
                                     for i in range(4)}


class RecordingPool(ProcessPoolBackend):
    """A real pool that remembers which points it was handed."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.handed = []

    def execute(self, run_point, points, budget, **kwargs):
        self.handed.append([key for key, _ in points])
        return super().execute(run_point, points, budget, **kwargs)


class TestGcRetentionPolicy:
    """Age and size bounds for ``repro cache gc``."""

    def _put(self, store, i):
        key = f"{i:02x}" + "ab" * 31
        store.put(key, {"v": i}, task="t")
        return key

    def test_expired_entries_removed_by_catalog_ts(self, store,
                                                   monkeypatch):
        import repro.store.catalog as catalog_module
        old_key, new_key = self._put(store, 0), self._put(store, 1)
        now = catalog_module.time.time()
        monkeypatch.setattr(catalog_module.time, "time",
                            lambda: now - 10 * 86400)
        store.catalog.record(old_key, "miss")
        monkeypatch.setattr(catalog_module.time, "time", lambda: now)
        store.catalog.record(new_key, "miss")
        report = store.gc(max_age_days=1.0)
        assert report.removed_expired == 1
        assert report.kept == 1
        assert not store.contains(old_key)
        assert store.contains(new_key)

    def test_uncataloged_entries_age_by_mtime(self, store):
        old_key, new_key = self._put(store, 0), self._put(store, 1)
        old_path = store.path_for(old_key)
        stale = os.path.getmtime(old_path) - 10 * 86400
        os.utime(old_path, (stale, stale))
        report = store.gc(max_age_days=1.0)
        assert report.removed_expired == 1
        assert not store.contains(old_key)
        assert store.contains(new_key)

    def test_lru_eviction_to_byte_cap(self, store, monkeypatch):
        import repro.store.catalog as catalog_module
        keys = [self._put(store, i) for i in range(4)]
        now = catalog_module.time.time()
        # Touch keys in order: key i used at now - (3 - i), so key 3
        # is the most recently used and must survive longest.
        for i, key in enumerate(keys):
            monkeypatch.setattr(catalog_module.time, "time",
                                lambda i=i: now - (3 - i))
            store.catalog.record(key, "hit")
        entry_bytes = os.path.getsize(store.path_for(keys[0]))
        report = store.gc(max_bytes=2 * entry_bytes)
        assert report.removed_evicted == 2
        assert report.kept == 2
        assert [store.contains(k) for k in keys] \
            == [False, False, True, True]

    def test_zero_byte_cap_empties_the_store(self, store):
        for i in range(3):
            self._put(store, i)
        report = store.gc(max_bytes=0)
        assert report.removed_evicted == 3
        assert store.stats().entries == 0

    def test_policy_knobs_validated(self, store):
        with pytest.raises(ConfigurationError):
            store.gc(max_age_days=-1)
        with pytest.raises(ConfigurationError):
            store.gc(max_bytes=-1)

    def test_default_gc_keeps_good_entries(self, store):
        keys = [self._put(store, i) for i in range(3)]
        report = store.gc()
        assert report.kept == 3
        assert report.removed_expired == report.removed_evicted == 0
        assert all(store.contains(k) for k in keys)

    def test_evicted_key_is_a_clean_miss(self, store):
        key = self._put(store, 7)
        store.gc(max_bytes=0)
        found, _ = store.fetch(key)
        assert not found


class TestCatalogLastUse:
    def test_last_use_tracks_newest_hit_or_miss(self, tmp_path,
                                                monkeypatch):
        import repro.store.catalog as catalog_module
        catalog = Catalog(str(tmp_path / "catalog.jsonl"))
        for ts, event in ((100.0, "miss"), (200.0, "hit"),
                          (300.0, "fail")):
            monkeypatch.setattr(catalog_module.time, "time",
                                lambda ts=ts: ts)
            catalog.record("ab12", event)
        last = catalog.last_use_by_key()
        # The fail at t=300 stored nothing, so last use stays at 200.
        assert last == {"ab12": 200.0}

    def test_pre_ts_lines_are_ignored(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        path.write_text('{"key": "ab12", "event": "hit"}\n')
        assert Catalog(str(path)).last_use_by_key() == {}


class TestConcurrentWriters:
    """The sweep service's threads share one catalog and store."""

    def test_threaded_catalog_appends_never_tear(self, tmp_path):
        import threading
        catalog = Catalog(str(tmp_path / "catalog.jsonl"))
        writers, per_writer = 8, 25

        def append(worker):
            for i in range(per_writer):
                catalog.record(f"{worker:02x}{i:02x}" + "ab" * 30,
                               "miss", task=f"w{worker}",
                               summary={"i": i})

        threads = [threading.Thread(target=append, args=(w,))
                   for w in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        entries = list(catalog.entries())
        # Every line parses and none were lost or interleaved.
        assert len(entries) == writers * per_writer
        assert catalog.counts() == {"miss": writers * per_writer}
        with open(catalog.path, "r", encoding="utf-8") as fh:
            raw_lines = [line for line in fh if line.strip()]
        assert len(raw_lines) == writers * per_writer

    def test_threaded_store_puts_all_land(self, store):
        import threading
        keys = [f"{i:02x}" + "cd" * 31 for i in range(16)]

        def put(key, i):
            store.put(key, {"v": i}, task="t")
            store.catalog.record(key, "miss", task="t")

        threads = [threading.Thread(target=put, args=(key, i))
                   for i, key in enumerate(keys)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(store.contains(key) for key in keys)
        assert store.catalog.counts() == {"miss": len(keys)}
        assert store.verify().clean
