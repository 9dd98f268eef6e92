"""Tests for the command-line interface."""

import json
import os
from dataclasses import replace

import pytest

from repro import units
from repro.analysis import starvation
from repro.analysis.competition import compile_matrix_plan
from repro.analysis.report import describe_run
from repro.analysis.sweep import compile_sweep_plan
from repro.ccas import registry
from repro.cli import build_parser, main, parse_flow_spec
from repro.errors import ConfigurationError
from repro.spec import (CCASpec, ElementSpec, FlowSpec, ScenarioSpec,
                        single_flow_scenario)


class TestFlowSpecParsing:
    def test_plain_cca(self):
        spec = parse_flow_spec("vegas", rm=0.04)
        assert isinstance(spec, FlowSpec)
        assert spec.label == "vegas"
        assert spec.ack_elements == ()

    def test_all_ccas_resolve(self):
        for name in registry.names():
            spec = parse_flow_spec(name, rm=0.04)
            cca = spec.cca.create()
            assert hasattr(cca, "on_ack")

    def test_poison_modifier(self):
        spec = parse_flow_spec("copa:poison", rm=0.04)
        assert len(spec.ack_elements) == 1
        assert spec.ack_elements[0].kind == "exempt_first_jitter"
        assert spec.ack_elements[0].params["eta"] == pytest.approx(0.001)

    def test_poison_with_amount(self):
        spec = parse_flow_spec("copa:poison5", rm=0.04)
        assert spec.ack_elements[0].params["eta"] == pytest.approx(0.005)

    def test_jitter_modifier(self):
        spec = parse_flow_spec("vegas:jitter10", rm=0.04)
        assert spec.ack_elements[0].kind == "constant_jitter"

    def test_agg_modifier(self):
        spec = parse_flow_spec("vivace:agg60", rm=0.04)
        assert spec.ack_elements[0].kind == "ack_aggregation"

    def test_delack_modifier(self):
        spec = parse_flow_spec("reno:delack4", rm=0.04)
        assert spec.ack_every == 4
        assert spec.ack_timeout is not None

    def test_unknown_cca_exits(self):
        # CCASpec owns the name check; main() reports it in one line.
        with pytest.raises(ConfigurationError, match="unknown CCA"):
            parse_flow_spec("nope", rm=0.04)
        with pytest.raises(SystemExit, match="^repro run: unknown CCA"):
            main(["run", "--rate", "12", "--rm", "40", "--cca", "nope"])

    def test_unknown_modifier_exits(self):
        with pytest.raises(SystemExit):
            parse_flow_spec("vegas:zap", rm=0.04)

    def test_ge_fault_modifier(self):
        spec = parse_flow_spec("bbr:ge0.02", rm=0.04)
        assert spec.data_elements == (
            ElementSpec("gilbert_elliott", {"mean_loss": 0.02}),)

    def test_blackout_fault_modifier(self):
        spec = parse_flow_spec("bbr:blackout5-7", rm=0.04)
        assert spec.data_elements == (
            ElementSpec("blackout", start=5.0, end=7.0),)

    def test_flap_reorder_dup_corrupt_modifiers(self):
        spec = parse_flow_spec(
            "reno:flap2-0.5:reorder0.05:dup0.01:corrupt0.01", rm=0.04)
        assert [e.kind for e in spec.data_elements] == [
            "flap", "reorder", "duplicate", "random_loss"]
        assert all(e.start is None for e in spec.data_elements)

    def test_modifiers_stack_with_ack_modifiers(self):
        spec = parse_flow_spec("vegas:jitter5:blackout1-2", rm=0.04)
        assert len(spec.ack_elements) == 1
        assert len(spec.data_elements) == 1

    def test_stochastic_modifiers_carry_no_seed_of_their_own(self):
        # The scenario root seed and the element's position decide it
        # at build time, as for every other element.
        spec = parse_flow_spec("bbr:ge0.02:dup0.1", rm=0.04)
        assert all("seed" not in e.params for e in spec.data_elements)

    def test_parsed_spec_round_trips(self):
        spec = parse_flow_spec(
            "copa:poison:jitter2:ge0.02:blackout5-7", rm=0.04)
        rt = FlowSpec.from_json(
            json.loads(json.dumps(spec.to_json())))
        assert rt == spec

    def test_bad_blackout_window_exits(self):
        with pytest.raises(SystemExit):
            parse_flow_spec("bbr:blackout5", rm=0.04)

    def test_bad_modifier_values_exit_cleanly(self):
        # ValueError/ConfigurationError become SystemExit with the
        # offending modifier named, not a traceback.
        for spec in ("vegas:ge", "vegas:blackout7-5", "vegas:dup1.5",
                     "vegas:ge1.5", "vegas:flap2-3", "vegas:reorder-1"):
            with pytest.raises(SystemExit, match="modifier|spec"):
                parse_flow_spec(spec, rm=0.04)


class TestCommands:
    def test_run_command(self, capsys):
        code = main(["run", "--rate", "12", "--rm", "40",
                     "--cca", "vegas", "--duration", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vegas" in out
        assert "utilization" in out

    def test_run_two_flows(self, capsys):
        code = main(["run", "--rate", "12", "--rm", "40",
                     "--cca", "vegas", "--cca", "vegas:jitter5",
                     "--duration", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vegas:jitter5" in out

    def test_run_with_fault_flags(self, capsys):
        code = main(["run", "--rate", "12", "--rm", "40",
                     "--cca", "vegas:blackout1-2", "--cca", "vegas",
                     "--duration", "4", "--link-ge", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vegas:blackout1-2" in out

    def test_run_with_link_blackout_and_flap(self, capsys):
        code = main(["run", "--rate", "12", "--rm", "40",
                     "--cca", "vegas", "--duration", "4",
                     "--link-blackout", "1-1.5",
                     "--link-flap", "2-0.25"])
        assert code == 0

    def test_run_has_no_separate_fault_seed(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        options = capsys.readouterr().out
        assert "--link-ge" in options and "--seed" in options
        assert "fault-seed" not in options

    @pytest.mark.parametrize("flags, stochastic", [
        (["--cca", "reno:ge0.02", "--link-ge", "0.02"], 2),
        (["--cca", "reno:ge0.02", "--cca", "reno:ge0.02"], 2),
        (["--cca", "reno:dup0.1:ge0.02:corrupt0.01",
          "--cca", "reno:reorder0.1", "--link-ge", "0.05"], 5),
    ])
    def test_no_two_stochastic_elements_share_a_seed(
            self, flags, stochastic, capsys):
        """The deleted per-run fault seed gave a flow's chain and the
        link's chain (window k of any two schedules) one RNG stream."""
        assert main(["run", "--rate", "12", "--rm", "40", "--dump-spec"]
                    + flags) == 0
        scenario = ScenarioSpec.loads(capsys.readouterr().out).build()
        states = []
        seen = set()
        frontier = [flow.sender.path for flow in scenario.flows]
        while frontier:
            node = frontier.pop()
            if node is None or id(node) in seen:
                continue
            seen.add(id(node))
            if hasattr(node, "_rng"):
                states.append(node._rng.getstate())
            frontier += [getattr(node, attr, None)
                         for attr in ("sink", "impaired", "bypass")]
        assert len(states) == len(set(states)) == stochastic

    def test_v2_dump_with_windows_round_trips_to_the_same_report(
            self, tmp_path, capsys):
        flags = ["run", "--rate", "12", "--rm", "40", "--duration", "3",
                 "--cca", "bbr:ge0.02:blackout1-2", "--link-flap",
                 "2-0.25"]
        assert main(flags + ["--dump-spec"]) == 0
        dumped = capsys.readouterr().out
        assert json.loads(dumped)["version"] == 2
        assert "faults" not in dumped and "fault" not in dumped
        spec_path = tmp_path / "scenario.json"
        spec_path.write_text(dumped)
        assert main(flags) == 0
        from_flags = capsys.readouterr().out.splitlines()[1:]
        assert main(["run", "--spec", str(spec_path),
                     "--duration", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == from_flags

    def test_version_1_spec_file_runs(self, capsys):
        fixture = os.path.join(os.path.dirname(__file__), "data",
                               "spec_v1", "faults_vegas.json")
        assert main(["run", "--spec", fixture, "--duration", "2"]) == 0
        assert "vegas#0" in capsys.readouterr().out

    @pytest.mark.parametrize("element", [
        5, {"kind": "delay", "params": 5}, {"kind": ["x"]},
        {"params": {}}, {"kind": "blackout", "start": 1.0, "end": 1.0}])
    def test_malformed_element_in_spec_file_exits_cleanly(
            self, element, tmp_path):
        doc = single_flow_scenario(CCASpec("vegas"), rate=1.5e6,
                                   rm=0.04).to_json()
        doc["flows"][0]["data_elements"] = [element]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit, match="element") as excinfo:
            main(["run", "--spec", str(path), "--duration", "2"])
        assert "Traceback" not in str(excinfo.value)

    @pytest.mark.parametrize("flag, mangle", [
        ("--spec", lambda doc: [1, 2]),
        ("--spec", lambda doc: {**doc, "link": 5}),
        ("--spec", lambda doc: {**doc, "flows": [{**doc["flows"][0],
                                                  "cca": "vegas"}]}),
        ("--spec", None),
        ("--topology", lambda doc: {"links": 5}),
        ("--topology", None),
    ], ids=["spec-not-an-object", "link-not-an-object",
            "cca-not-an-object", "spec-not-utf8", "links-not-a-list",
            "topology-not-utf8"])
    def test_malformed_or_undecodable_file_exits_in_one_line(
            self, flag, mangle, tmp_path):
        """``None`` writes bytes that are not UTF-8 at all."""
        doc = single_flow_scenario(CCASpec("vegas"), rate=1.5e6,
                                   rm=0.04).to_json()
        path = tmp_path / "bad.json"
        if mangle is None:
            path.write_bytes(bytes(range(256)))
        else:
            path.write_text(json.dumps(mangle(doc)))
        argv = ["run", flag, str(path), "--duration", "2"]
        if flag == "--topology":
            argv += ["--rm", "40", "--cca", "vegas"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message and "\n" not in message
        assert "Traceback" not in message

    def test_run_needs_flags_or_spec(self):
        with pytest.raises(SystemExit):
            main(["run", "--rate", "12", "--rm", "40"])

    def test_run_rejects_spec_and_cca_together(self, tmp_path):
        with pytest.raises(SystemExit, match="not both"):
            main(["run", "--spec", str(tmp_path / "s.json"),
                  "--cca", "vegas"])

    def test_dump_spec_then_run_spec_reproduces(self, tmp_path, capsys):
        flags = ["run", "--rate", "12", "--rm", "40",
                 "--cca", "vegas", "--cca", "copa:poison",
                 "--duration", "4"]
        assert main(flags + ["--dump-spec"]) == 0
        dumped = capsys.readouterr().out
        spec_path = tmp_path / "scenario.json"
        spec_path.write_text(dumped)
        # The dump is a valid, lossless ScenarioSpec.
        spec = ScenarioSpec.load(str(spec_path))
        assert spec == ScenarioSpec.loads(spec.dumps())

        assert main(flags) == 0
        from_flags = capsys.readouterr().out.splitlines()[1:]
        assert main(["run", "--spec", str(spec_path),
                     "--duration", "4"]) == 0
        from_spec = capsys.readouterr().out.splitlines()[1:]
        # Identical reports apart from the title line.
        assert from_spec == from_flags

    def test_run_spec_uses_embedded_duration(self, tmp_path, capsys):
        spec_path = tmp_path / "scenario.json"
        main(["run", "--rate", "12", "--rm", "40", "--cca", "vegas",
              "--dump-spec"])
        spec = ScenarioSpec.loads(capsys.readouterr().out)
        import dataclasses
        spec = dataclasses.replace(spec, duration=4.0, warmup=1.0)
        spec.save(str(spec_path))
        assert main(["run", "--spec", str(spec_path)]) == 0
        assert "4 s" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        code = main(["sweep", "--cca", "vegas", "--rates", "2,10",
                     "--rm", "40", "--duration", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta_max" in out

    def test_sweep_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "curve.json"
        code = main(["sweep", "--cca", "vegas", "--rates", "2,10",
                     "--rm", "40", "--duration", "5",
                     "--json", str(out_path)])
        assert code == 0
        curve = json.loads(out_path.read_text())
        assert len(curve["points"]) == 2
        assert curve["failures"] == []

    def test_sweep_with_checkpoint_resumes(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "ck.json")
        args = ["sweep", "--cca", "vegas", "--rates", "2,10",
                "--rm", "40", "--duration", "5",
                "--checkpoint", checkpoint]
        assert main(args) == 0
        capsys.readouterr()
        # Second invocation resumes from the checkpoint (instant).
        assert main(args) == 0
        assert "delta_max" in capsys.readouterr().out

    def test_sweep_retry_failures_reruns_failed_points(self, tmp_path,
                                                       capsys):
        checkpoint = str(tmp_path / "ck.json")
        base = ["sweep", "--cca", "vegas", "--rates", "2",
                "--rm", "40", "--duration", "5",
                "--checkpoint", checkpoint]
        # Starve the budget so the point fails and is checkpointed —
        # under the budget that was typed, after one attempt.
        assert main(base + ["--max-events", "1000"]) == 1
        assert "       1  run exceeded event budget of 1000 events" in \
            capsys.readouterr().out
        # Without --retry-failures the failure record is kept.
        assert main(base) == 1
        capsys.readouterr()
        assert main(base + ["--retry-failures"]) == 0
        assert "delta_max" in capsys.readouterr().out

    def test_pool_verbs_take_jobs_and_nothing_else(self, capsys):
        for verb in ("run", "sweep", "matrix", "starve"):
            with pytest.raises(SystemExit):
                main([verb, "--help"])
            out = capsys.readouterr().out
            assert "--jobs" in out and "--chunk" not in out

    def test_theorem_2(self, capsys):
        code = main(["theorem", "2"])
        assert code == 0
        assert "utilization" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_starve_choices_cover_section5(self):
        assert {"copa", "bbr", "vivace", "allegro"} <= set(
            starvation.SCENARIOS)


#: A cheap stand-in for a Section 5 table entry: the Copa pair at a
#: tenth of the paper's rate.
QUICK_COPA = starvation.copa_two_flow_poisoned.fixed(rate_mbps=12.0)


class TestStarveRunsSpecs:
    """``repro starve NAME`` is ``repro run`` over the library's spec:
    the point carries the scenario, not its name."""

    def test_stdout_is_the_library_report(self, monkeypatch, capsys):
        entry = QUICK_COPA.fixed(duration=3.0)
        monkeypatch.setitem(starvation.SCENARIOS, "quick", entry)
        assert main(["starve", "quick"]) == 0
        assert capsys.readouterr().out == describe_run(
            "Section 5 scenario: quick", entry()) + "\n"

    def test_edited_scenario_misses_the_cache(self, tmp_path,
                                              monkeypatch, capsys):
        # The cache key covers the scenario: the same name with a new
        # duration is a new experiment, not a hit on the old report.
        cache = str(tmp_path / "cache")
        reports = []
        for duration in (3.0, 4.0, 4.0):
            monkeypatch.setitem(starvation.SCENARIOS, "quick",
                                QUICK_COPA.fixed(duration=duration))
            assert main(["starve", "quick", "--cache-dir", cache]) == 0
            reports.append(capsys.readouterr().out)
        first, edited, again = reports
        assert "cache: 0 hit(s), 1 miss(es)" in first
        assert "cache: 0 hit(s), 1 miss(es)" in edited
        assert "cache: 1 hit(s), 0 miss(es)" in again
        assert first != edited == again.replace("1 hit(s), 0 miss(es)",
                                                "0 hit(s), 1 miss(es)")

    def test_crash_bundle_replays_without_the_table(self, tmp_path,
                                                    monkeypatch, capsys):
        def broken():
            # Element params are checked when the spec is written; a CCA
            # param is still checked when the scenario is built.
            good = QUICK_COPA.spec(duration=3.0)
            bad = replace(good.flows[0], cca=CCASpec("vegas", {"bogus": 1}))
            return replace(good, flows=(bad,))

        monkeypatch.setitem(starvation.SCENARIOS, "broken",
                            starvation.Experiment(broken))
        crashes = tmp_path / "crashes"
        assert main(["starve", "broken", "--crash-dir",
                     str(crashes)]) == 1
        assert "ConfigurationError" in capsys.readouterr().out
        bundle, = crashes.glob("crash-*.json")
        captured = json.loads(bundle.read_text())
        assert captured["task"] == "repro.cli:_run_spec_point"
        params = captured["params"]
        assert ScenarioSpec.from_json(params["scenario"]) == broken()
        assert (params["duration"], params["warmup"]) == (3.0, 1.0)
        assert params["title"] == "Section 5 scenario: broken"
        # The report's Definition 2 levels are a param, so its cache key
        # covers every input of the report text.
        assert params["levels"] == [2, 5, 10, 50, 100]
        monkeypatch.delitem(starvation.SCENARIOS, "broken")
        assert main(["replay", str(bundle)]) == 1
        out = capsys.readouterr().out
        assert "unexpected keyword argument 'bogus'" in out
        assert "reproduces deterministically" in out


class TestFuzzCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        code = main(["fuzz", "--iterations", "2", "--seed", "1",
                     "--no-differential"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzzing 2 scenario(s), seed 1" in out
        assert "no fresh findings" in out

    def test_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["fuzz", "--iterations", "2", "--no-differential",
                     "--json", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["executed"] == 2
        assert report["findings"] == []

    def test_fresh_finding_fails_and_files_corpus(self, tmp_path,
                                                  monkeypatch, capsys):
        # Inject the packet-balance accounting bug; the campaign must
        # exit non-zero and file a minimized corpus entry.
        from repro.sim.host import Receiver
        original = Receiver.receive

        def double_count(self, packet, now):
            original(self, packet, now)
            self.received_packets += 1

        monkeypatch.setattr(Receiver, "receive", double_count)
        corpus = tmp_path / "corpus"
        code = main(["fuzz", "--iterations", "1", "--seed", "1",
                     "--no-differential", "--max-flows", "4",
                     "--corpus-dir", str(corpus)])
        assert code == 1
        out = capsys.readouterr().out
        assert "invariant:conservation:scenario.packet_balance" in out
        assert "fresh finding(s) not in the corpus" in out
        entries = list(corpus.glob("fuzz-*.json"))
        assert len(entries) == 1
        # A second campaign recognizes the filed signature as known.
        code = main(["fuzz", "--iterations", "1", "--seed", "1",
                     "--no-differential", "--max-flows", "4",
                     "--corpus-dir", str(corpus)])
        assert code == 0
        assert "[known]" in capsys.readouterr().out

    def test_replay_reproduces_fuzz_bundle(self, tmp_path, capsys):
        # A fuzz finding captured as a crash bundle replays through
        # the stock `repro replay` command to the same signature.
        from repro.analysis.backends import execute_point
        from repro.analysis.harness import RunBudget
        from repro.fuzz import (battery_params, fuzz_battery_point,
                                generate_spec)
        params = dict(battery_params(generate_spec(1, 0),
                                     determinism=False))
        params["raise_on_finding"] = "budget:events:engine"
        tight = RunBudget(max_events=2_000, wall_clock=None)
        outcome = execute_point(fuzz_battery_point, "fuzz-0000",
                                params, tight, backend_name="fuzz",
                                crash_dir=str(tmp_path))
        assert outcome.failure.reason == "OracleFailure"
        code = main(["replay", outcome.failure.bundle])
        out = capsys.readouterr().out
        assert code == 1
        assert "OracleFailure" in out
        assert "budget:events:engine" in out
        assert "reproduces deterministically" in out


class TestSweepMaxFailures:
    def test_abort_exits_nonzero_with_summary(self, tmp_path, capsys):
        # A 200-event budget fails every point; --max-failures 0
        # aborts on the first one.
        checkpoint = tmp_path / "ck.json"
        code = main(["sweep", "--cca", "vegas", "--rates", "2,10",
                     "--rm", "40", "--duration", "5",
                     "--max-events", "200", "--max-failures", "0",
                     "--checkpoint", str(checkpoint)])
        assert code == 1
        out = capsys.readouterr().out
        assert "sweep aborted early (--max-failures 0)" in out
        assert "BudgetExceededError" in out
        assert "checkpointed" in out

    def test_within_threshold_completes(self, capsys):
        code = main(["sweep", "--cca", "vegas", "--rates", "2,10",
                     "--rm", "40", "--duration", "5",
                     "--max-failures", "2"])
        assert code == 0
        assert "delta_max" in capsys.readouterr().out


class TestLocalAndSubmitAgree:
    """A verb and its ``submit`` twin take the same experiment flags
    and compile them to the same parameter document."""

    @pytest.fixture
    def files(self, tmp_path):
        from repro.spec import (CCASpec, parking_lot_topology,
                                single_flow_scenario)
        topology = tmp_path / "topo.json"
        parking_lot_topology([units.mbps(10), units.mbps(8)]).save(
            str(topology))
        template = tmp_path / "template.json"
        single_flow_scenario(CCASpec("copa"), rate=units.mbps(1),
                             rm=units.ms(40)).save(str(template))
        return {"TOPOLOGY": str(topology), "TEMPLATE": str(template)}

    @pytest.mark.parametrize("kind,flags", [
        ("sweep", ["--cca", "vegas", "--rates", "2,8", "--rm", "40",
                   "--duration", "3", "--seed", "3"]),
        ("sweep", ["--cca", "copa", "--spec", "TEMPLATE"]),
        ("sweep", ["--cca", "copa", "--rates", "2,10",
                   "--topology", "TOPOLOGY"]),
        ("matrix", ["--ccas", "reno,vegas", "--rate", "8", "--rm", "40",
                    "--duration", "4", "--seed", "7",
                    "--starve-threshold", "20"]),
        ("matrix", ["--ccas", "bbr,cubic", "--topology", "TOPOLOGY"]),
    ])
    def test_same_flags_same_params(self, files, kind, flags):
        from repro.service import JobSpec, build_plan
        flags = [files.get(flag, flag) for flag in flags]
        parser = build_parser()
        local = parser.parse_args([kind, *flags])
        remote = parser.parse_args(["submit", kind, *flags])
        params = local.params(local)
        assert params == remote.params(remote)
        # The document is already the normalized JobSpec vocabulary, so
        # what the daemon compiles is what the local verb compiles.
        spec = JobSpec.from_json({"kind": kind, **params})
        assert {key: spec.params[key] for key in params} == params
        compiler = {"sweep": compile_sweep_plan,
                    "matrix": compile_matrix_plan}[kind]
        assert build_plan(spec).points == compiler(**params).points


class TestServiceCommands:
    """The serve/submit/jobs verbs against an in-process daemon."""

    @pytest.fixture
    def daemon(self, tmp_path):
        from repro.service import SweepService, serve_background
        from repro.store import ResultStore
        service = SweepService(str(tmp_path / "jobs"),
                               ResultStore(str(tmp_path / "cache")))
        server = serve_background(service)
        try:
            yield f"http://127.0.0.1:{server.port}"
        finally:
            server.close()

    def test_submit_writes_local_identical_json(self, daemon, tmp_path,
                                                capsys):
        out = tmp_path / "service.json"
        local = tmp_path / "local.json"
        common = ["--cca", "vegas", "--rates", "2,8", "--rm", "40",
                  "--duration", "3", "--seed", "3"]
        assert main(["submit", "sweep", *common, "--url", daemon,
                     "--json", str(out)]) == 0
        assert "submitted job" in capsys.readouterr().out
        assert main(["sweep", *common, "--json", str(local)]) == 0
        assert out.read_bytes() == local.read_bytes()

    def test_jobs_listing_and_snapshot(self, daemon, capsys):
        assert main(["submit", "sweep", "--cca", "vegas", "--rates",
                     "2", "--rm", "40", "--duration", "3",
                     "--url", daemon, "--json", os.devnull]) == 0
        capsys.readouterr()
        assert main(["jobs", "--url", daemon]) == 0
        out = capsys.readouterr().out
        assert "done" in out and "1 job(s)" in out
        jid = out.split()[0]
        assert main(["jobs", jid, "--url", daemon]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["id"] == jid
        assert snapshot["state"] == "done"
        assert main(["jobs", jid, "--events", "--url", daemon]) == 0
        events = [json.loads(line) for line in
                  capsys.readouterr().out.splitlines()]
        assert events[-1]["event"] == "done"

    def test_submit_unknown_cca_exits_cleanly(self, daemon):
        with pytest.raises(SystemExit):
            main(["submit", "sweep", "--cca", "no-such", "--rates",
                  "2", "--rm", "40", "--url", daemon])

    def test_unreachable_daemon_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(["jobs", "--url", "http://127.0.0.1:9"])


class TestCacheGcFlags:
    def test_gc_policy_flags_evict(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["sweep", "--cca", "vegas", "--rates", "2,8",
                     "--rm", "40", "--duration", "3",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", str(cache),
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "2 evicted" in out
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        assert "entries    0" in capsys.readouterr().out
