"""Fuzz subsystem tests: generator, oracles, shrinker, driver, bundles.

The acceptance criteria from the robustness issue live here:

* the generator is a pure function of ``(seed, index)`` and only emits
  valid-by-construction specs inside its configured bounds,
* a deliberately injected invariant bug (packet-balance accounting) is
  caught by the battery and shrunk to a <= 2-flow spec,
* ``run_fuzz`` with a fixed seed is fully deterministic — same
  findings, same minimized specs, byte-identical corpus entries,
* a crash bundle produced from a fuzz finding replays to the exact
  same violation signature on both backends.

Injected-bug tests monkeypatch :class:`repro.sim.host.Receiver` and
therefore run serially with ``differential=False`` — a monkeypatch
does not cross a spawned worker's process boundary. The bundle tests
use a real (budget) finding instead, which reproduces anywhere.
"""

import hashlib
import json
import os

import pytest

from repro.analysis.backends import (ProcessPoolBackend, SerialBackend,
                                     execute_point)
from repro.analysis.diagnostics import load_bundle, replay_bundle
from repro.analysis.harness import RunBudget
from repro.errors import ConfigurationError
from repro.fuzz import (CorpusEntry, Finding, FuzzConfig, OracleFailure,
                        battery_params, check_entry, fuzz_battery_point,
                        generate_spec, generate_specs, known_signatures,
                        load_corpus, normalize_component, reproduces,
                        run_battery, run_fuzz, shrink_spec, write_entry)
from repro.sim.host import Receiver

#: The signature the injected Receiver bug must produce (the scenario
#: packet-balance conservation check catches over-counted deliveries).
BALANCE_SIG = "invariant:conservation:scenario.packet_balance"

#: A real finding that needs no monkeypatch: any generated spec blows
#: a 2k-event budget, so this signature reproduces in worker processes.
BUDGET_SIG = "budget:events:engine"

BUDGET = RunBudget(max_events=2_000_000, wall_clock=None)
TIGHT = RunBudget(max_events=2_000, wall_clock=None)

#: Small bounds keep injected-bug campaigns fast.
SMALL = FuzzConfig(max_flows=4, max_duration=2.0)


@pytest.fixture
def broken_receiver(monkeypatch):
    """Inject a packet-balance accounting bug into every Receiver."""
    original = Receiver.receive

    def double_count(self, packet, now):
        original(self, packet, now)
        self.received_packets += 1

    monkeypatch.setattr(Receiver, "receive", double_count)


def sha256_tree(directory):
    """``{filename: sha256}`` for every corpus file in a directory."""
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class TestGenerator:
    def test_same_seed_and_index_is_identical(self):
        for i in (0, 3, 17):
            assert generate_spec(1, i) == generate_spec(1, i)
            assert generate_spec(1, i).dumps() == generate_spec(1, i).dumps()

    def test_generate_specs_matches_pointwise(self):
        batch = list(generate_specs(9, 6))
        assert batch == [(i, generate_spec(9, i)) for i in range(6)]

    def test_seed_and_index_both_matter(self):
        specs = {generate_spec(seed, i).dumps()
                 for seed in (1, 2) for i in range(8)}
        assert len(specs) > 8  # far from degenerate

    def test_specs_respect_config_bounds(self):
        config = FuzzConfig(max_flows=5, min_duration=1.0,
                            max_duration=2.0)
        for i in range(30):
            spec = generate_spec(4, i, config)
            assert 1 <= len(spec.flows) <= 5
            assert 1.0 <= spec.duration <= 2.0
            assert spec.warmup < spec.duration
            for flow in spec.flows:
                assert config.min_rm <= flow.rm <= config.max_rm

    def test_specs_are_valid_by_construction(self):
        # Building exercises every spec validator plus the CCA
        # registry; a ConfigurationError here is generator skew.
        for i in range(10):
            generate_spec(1, i).build()

    def test_specs_cover_multiple_flow_counts_and_ccas(self):
        specs = [spec for _i, spec in generate_specs(1, 40)]
        assert len({len(s.flows) for s in specs}) >= 4
        assert len({f.cca.name for s in specs for f in s.flows}) >= 5


class TestSignatures:
    def test_indices_are_stripped(self):
        assert normalize_component("sender[3].cwnd") == "sender[].cwnd"
        assert normalize_component("scenario.packet_balance") == \
            "scenario.packet_balance"

    def test_signature_is_stable_across_flow_position(self):
        a = Finding("invariant", "sanity", "sender[0].srtt", "x")
        b = Finding("invariant", "sanity", "sender[7].srtt", "y")
        assert a.signature == b.signature == \
            "invariant:sanity:sender[].srtt"


class TestBattery:
    def test_clean_spec_produces_no_findings(self):
        result = run_battery(generate_spec(1, 0),
                             max_events=BUDGET.max_events)
        assert result.findings == []
        assert set(result.digests) == {"traces", "summary"}

    def test_budget_blowout_is_a_finding(self):
        result = run_battery(generate_spec(1, 0), max_events=2_000)
        assert BUDGET_SIG in result.signatures
        assert result.digests is None

    def test_injected_bug_is_caught(self, broken_receiver):
        result = run_battery(generate_spec(1, 0),
                             max_events=BUDGET.max_events)
        assert BALANCE_SIG in result.signatures
        finding = result.findings[0]
        assert finding.oracle == "invariant"
        assert finding.kind == "conservation"
        assert finding.sim_time is not None

    def test_worker_raises_oracle_failure_on_match(self):
        spec = generate_spec(1, 0)
        params = dict(battery_params(spec, determinism=False))
        params["raise_on_finding"] = "*"
        with pytest.raises(OracleFailure) as info:
            fuzz_battery_point(params, TIGHT)
        assert info.value.kind == "events"
        assert info.value.details["signature"] == BUDGET_SIG

    def test_worker_ignores_non_matching_signature(self):
        spec = generate_spec(1, 0)
        params = dict(battery_params(spec, determinism=False))
        params["raise_on_finding"] = "invariant:never:matches"
        result = fuzz_battery_point(params, TIGHT)
        assert result["findings"][0]["signature"] == BUDGET_SIG


def pick_multiflow_spec(min_flows=3):
    """First generated spec with >= min_flows that shows the bug.

    Called with the ``broken_receiver`` fixture active; a spec whose
    flows never deliver a packet (e.g. blackout from t=0) cannot
    manifest an accounting bug, so require reproduction too.
    """
    for i in range(50):
        spec = generate_spec(1, i, SMALL)
        if len(spec.flows) >= min_flows and \
                reproduces(spec, BALANCE_SIG,
                           max_events=BUDGET.max_events):
            return spec
    raise AssertionError("generator produced no reproducing "
                         "multi-flow spec")


class TestShrink:
    def test_injected_bug_shrinks_to_two_flows_or_fewer(
            self, broken_receiver):
        spec = pick_multiflow_spec()
        outcome = shrink_spec(spec, BALANCE_SIG,
                              max_events=BUDGET.max_events)
        assert outcome.improved
        assert len(outcome.spec.flows) <= 2
        assert outcome.spec.duration <= spec.duration
        assert reproduces(outcome.spec, BALANCE_SIG,
                          max_events=BUDGET.max_events)

    def test_shrinking_is_deterministic(self, broken_receiver):
        spec = pick_multiflow_spec()
        first = shrink_spec(spec, BALANCE_SIG,
                            max_events=BUDGET.max_events)
        second = shrink_spec(spec, BALANCE_SIG,
                             max_events=BUDGET.max_events)
        assert first.spec == second.spec
        assert first.runs == second.runs

    def test_vanished_signature_returns_input(self):
        spec = generate_spec(1, 0)
        outcome = shrink_spec(spec, "invariant:never:matches",
                              max_events=BUDGET.max_events,
                              max_runs=10)
        assert outcome.spec == spec
        assert not outcome.improved


class TestRunFuzz:
    def test_clean_tree_small_campaign_has_no_findings(self):
        report = run_fuzz(iterations=2, seed=1, differential=False)
        assert report.executed == 2
        assert report.findings == []
        assert "0 distinct finding(s)" in report.describe()

    def test_campaign_catches_shrinks_and_files_injected_bug(
            self, broken_receiver, tmp_path):
        corpus = str(tmp_path / "corpus")
        crashes = str(tmp_path / "crashes")
        report = run_fuzz(iterations=3, seed=1, corpus_dir=corpus,
                          crash_dir=crashes, differential=False,
                          config=SMALL)
        assert [f.signature for f in report.fresh] == [BALANCE_SIG]
        finding = report.fresh[0]
        assert finding.reproducible
        assert len(finding.shrunk["flows"]) <= 2
        assert finding.corpus_path is not None
        assert finding.bundle is not None
        # The filed entry replays under the corpus regression rules.
        entries = load_corpus(corpus)
        assert len(entries) == 1
        entry = entries[0][1]
        assert entry.status == "expected"
        assert entry.origin == {"root_seed": 1,
                                "iteration": finding.index}
        ok, message = check_entry(entry,
                                  max_events=BUDGET.max_events)
        assert ok, message

    def test_campaign_is_byte_deterministic(self, broken_receiver,
                                            tmp_path):
        reports = []
        trees = []
        for name in ("a", "b"):
            corpus = str(tmp_path / name)
            report = run_fuzz(iterations=3, seed=7, corpus_dir=corpus,
                              differential=False, config=SMALL)
            data = report.to_json()
            data.pop("elapsed")
            for item in data["findings"]:
                item.pop("corpus_path")
            reports.append(data)
            trees.append(sha256_tree(corpus))
        assert reports[0] == reports[1]
        assert trees[0] == trees[1]

    def test_corpused_finding_is_known_not_fresh(self, broken_receiver,
                                                 tmp_path):
        corpus = str(tmp_path / "corpus")
        first = run_fuzz(iterations=2, seed=1, corpus_dir=corpus,
                         differential=False, config=SMALL)
        assert len(first.fresh) == 1
        second = run_fuzz(iterations=2, seed=1, corpus_dir=corpus,
                          differential=False, config=SMALL)
        assert second.fresh == []
        assert [f.signature for f in second.known] == [BALANCE_SIG]
        # Nothing was re-filed: the corpus still has exactly one entry.
        assert len(load_corpus(corpus)) == 1


class TestFuzzBundleReplay:
    """Fuzz finding -> crash bundle -> ``repro replay`` reproduction.

    Uses the real budget finding (no monkeypatch) so the failure
    reproduces inside pool workers and in a later replay process.
    """

    def bundle_params(self):
        params = dict(battery_params(generate_spec(1, 0),
                                     determinism=False))
        params["raise_on_finding"] = BUDGET_SIG
        return params

    def test_serial_bundle_replays_to_same_signature(self, tmp_path):
        crash_dir = str(tmp_path / "crashes")
        outcome = execute_point(fuzz_battery_point, "fuzz-0000",
                                self.bundle_params(), TIGHT,
                                backend_name="fuzz",
                                crash_dir=crash_dir)
        failure = outcome.failure
        assert failure is not None
        assert failure.reason == "OracleFailure"
        assert BUDGET_SIG in failure.message
        bundle = load_bundle(failure.bundle)
        assert bundle["engine"]["kind"] == "events"
        assert bundle["details"]["signature"] == BUDGET_SIG

        replay = replay_bundle(failure.bundle)
        assert replay.failure is not None
        assert replay.failure.reason == "OracleFailure"
        assert replay.failure.message == failure.message

    def test_pool_bundle_matches_serial_and_replays(self, tmp_path):
        serial_dir = str(tmp_path / "serial")
        pool_dir = str(tmp_path / "pool")
        points = [("fuzz-0000", self.bundle_params())]
        serial = next(iter(SerialBackend().execute(
            fuzz_battery_point, points, TIGHT, crash_dir=serial_dir)))
        backend = ProcessPoolBackend(jobs=2, point_timeout=60.0)
        pooled = next(iter(backend.execute(
            fuzz_battery_point, points, TIGHT, crash_dir=pool_dir)))
        assert pooled.failure is not None
        assert pooled.failure.reason == serial.failure.reason
        assert pooled.failure.message == serial.failure.message
        # Both bundles replay to the identical violation signature.
        for failure in (serial.failure, pooled.failure):
            replay = replay_bundle(failure.bundle)
            assert replay.failure.reason == "OracleFailure"
            assert BUDGET_SIG in replay.failure.message


class TestCorpusStore:
    def entry(self):
        spec = generate_spec(1, 0)
        return CorpusEntry(signature=BUDGET_SIG, oracle="budget",
                           kind="events", component="engine",
                           message="event budget exhausted",
                           scenario=spec.to_json(), status="expected")

    def test_write_load_roundtrip_and_stable_bytes(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        path = write_entry(corpus, self.entry())
        assert load_entry_bytes(path) == load_entry_bytes(
            write_entry(corpus, self.entry()))
        loaded = load_corpus(corpus)[0][1]
        assert loaded == self.entry()
        assert known_signatures(corpus) == {BUDGET_SIG}

    def test_filename_derives_from_content(self):
        entry = self.entry()
        assert entry.filename == self.entry().filename
        other = CorpusEntry(**{**entry.__dict__,
                               "signature": "budget:events:other"})
        assert other.filename != entry.filename

    def test_invalid_status_rejected(self):
        with pytest.raises(ConfigurationError, match="status"):
            CorpusEntry(signature="s", oracle="o", kind="k",
                        component="c", message="m", scenario={},
                        status="open")

    def test_version_gate(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        path = write_entry(corpus, self.entry())
        data = json.loads(open(path).read())
        data["version"] = 99
        open(path, "w").write(json.dumps(data))
        with pytest.raises(ConfigurationError, match="version"):
            load_corpus(corpus)

    def test_check_entry_expected_and_fixed_semantics(self):
        entry = self.entry()
        # Under the tight budget the signature reproduces: "expected"
        # passes, "fixed" fails.
        ok, _ = check_entry(entry, max_events=TIGHT.max_events)
        assert ok
        fixed = CorpusEntry(**{**entry.__dict__, "status": "fixed"})
        ok, message = check_entry(fixed, max_events=TIGHT.max_events)
        assert not ok and "reproduces again" in message
        # With a real budget it does not: the verdicts flip.
        ok, message = check_entry(entry, max_events=BUDGET.max_events)
        assert not ok and "no longer reproduces" in message
        ok, _ = check_entry(fixed, max_events=BUDGET.max_events)
        assert ok


def load_entry_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()
