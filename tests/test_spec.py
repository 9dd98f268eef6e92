"""Tests for the declarative spec layer (repro.spec).

Covers: deterministic seed derivation, per-kind JSON round trips for
CCAs / elements, element windows, the version-1 reader, ScenarioSpec
round-trip losslessness, spec == build equivalence, and the
seed-override rules (explicit beats derived).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.ccas import registry
from repro.errors import ConfigurationError, SpecValidationError
from repro.sim.digests import run_digests
from repro.spec import (CCASpec, ELEMENTS, ElementSpec, FlowSpec,
                        LinkSpec, ScenarioSpec, TopologySpec, derive_seed,
                        element_kinds, parking_lot_topology,
                        single_flow_scenario)

RM = units.ms(40)

#: Valid params for every element kind in the catalog (keep in sync
#: with ELEMENTS; the completeness test below enforces that).
ELEMENT_PARAMS = {
    "delay": {"delay": 0.01},
    "no_jitter": {},
    "constant_jitter": {"eta": 0.005},
    "exempt_first_jitter": {"eta": 0.001, "exempt_seqs": [0]},
    "ack_aggregation": {"period": 0.06},
    "square_wave_jitter": {"high": 0.01, "period": 2.0, "duty": 0.25},
    "step_trace_jitter": {"steps": [[0.0, 0.0], [1.0, 0.01]]},
    "token_bucket": {"rate": 1e6, "burst": 3000.0},
    "random_loss": {"loss_prob": 0.02},
    "periodic_loss": {"period": 10},
    "targeted_loss": {"drop_seqs": [3, 5, 8]},
    "gilbert_elliott": {"mean_loss": 0.02},
    "blackout": {},
    "flap": {"period": 2.0, "down_time": 0.25},
    "reorder": {"reorder_prob": 0.05, "extra_delay": 0.01},
    "duplicate": {"dup_prob": 0.01},
}

#: The six version-1 fault kinds with valid version-1 params (the
#: names of the deleted schedule helpers' arguments), and the element
#: each one is read as.
V1_FAULTS = {
    "blackout": ({}, ElementSpec("blackout", start=1.0, end=5.0)),
    "flap": ({"period": 2.0, "down_time": 0.25},
             ElementSpec("flap", {"period": 2.0, "down_time": 0.25},
                         start=1.0, end=5.0)),
    "gilbert_elliott": (
        {"mean_loss": 0.02},
        ElementSpec("gilbert_elliott", {"mean_loss": 0.02, "seed": 9000},
                    start=1.0, end=5.0)),
    "reorder": (
        {"prob": 0.05, "extra_delay": 0.01},
        ElementSpec("reorder", {"reorder_prob": 0.05, "extra_delay": 0.01,
                                "seed": 9000}, start=1.0, end=5.0)),
    "duplicate": ({"prob": 0.01},
                  ElementSpec("duplicate", {"dup_prob": 0.01, "seed": 9000},
                              start=1.0, end=5.0)),
    "corrupt": ({"prob": 0.01},
                ElementSpec("random_loss", {"loss_prob": 0.01, "seed": 9000},
                            start=1.0, end=5.0)),
}


def v1_document(windows, seed=None, root_seed=7):
    """A version-1 scenario document: one flow carrying ``windows``."""
    faults = {"windows": windows}
    if seed is not None:
        faults["seed"] = seed
    return {"version": 1, "seed": root_seed,
            "link": {"rate": 1500000.0},
            "flows": [{"cca": {"name": "vegas", "params": {}}, "rm": RM,
                       "faults": faults}]}


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "flow", 0, "cca") == \
            derive_seed(7, "flow", 0, "cca")

    def test_pinned_literals(self):
        # Platform/process-independent: these values are part of the
        # reproducibility contract (a change silently invalidates every
        # recorded experiment).
        assert derive_seed(0, "flow", 0, "cca") == 7293307298788941423
        assert derive_seed(7, "sweep", "2mbps") == 8326214278076350971

    def test_distinct_across_paths(self):
        seeds = {
            derive_seed(7, "flow", 0, "cca"),
            derive_seed(7, "flow", 1, "cca"),
            derive_seed(7, "flow", 0, "data", 0),
            derive_seed(7, "flow", 0, "ack", 0),
            derive_seed(7, "flow", 0, "faults"),
            derive_seed(7, "link", "faults"),
            derive_seed(8, "flow", 0, "cca"),
        }
        assert len(seeds) == 7

    def test_int_vs_string_parts_distinct(self):
        assert derive_seed(0, 1) != derive_seed(0, "1")

    def test_rejects_bad_parts(self):
        with pytest.raises(TypeError):
            derive_seed(0, 1.5)
        with pytest.raises(TypeError):
            derive_seed(0, True)

    def test_fits_in_63_bits(self):
        for i in range(50):
            assert 0 <= derive_seed(3, "x", i) < 2 ** 63


class TestCCASpec:
    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown CCA"):
            CCASpec("totally-new-cca")

    @pytest.mark.parametrize("name", registry.names())
    def test_every_registered_cca_round_trips(self, name):
        spec = CCASpec(name)
        rt = CCASpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rt == spec
        assert hasattr(spec.create(seed=1), "on_ack")

    def test_params_round_trip(self):
        spec = CCASpec("bbr", {"seed": 3, "quanta_packets": 2.0})
        rt = CCASpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rt == spec

    def test_explicit_seed_beats_derived(self):
        pinned = CCASpec("bbr", {"seed": 3}).create(seed=99)
        reference = CCASpec("bbr", {"seed": 3}).create()
        assert pinned._rng.random() == reference._rng.random()

    @pytest.mark.parametrize("name, params", [
        ("copa", {"delta": 0}),
        ("window-target", {"alpha": -1.0}),
    ])
    def test_bad_param_value_is_a_configuration_error(self, name, params):
        """Constructors reject bad values with ValueError; a spec turns
        that into a configuration error naming the CCA, not a failed
        run."""
        with pytest.raises(ConfigurationError, match=name):
            CCASpec(name, params).create()


class TestElementSpec:
    def test_catalog_params_table_is_complete(self):
        assert set(ELEMENT_PARAMS) == set(ELEMENTS)
        assert element_kinds() == sorted(ELEMENTS)

    @pytest.mark.parametrize("kind", sorted(ELEMENTS))
    def test_every_kind_round_trips_and_builds(self, kind):
        from repro.sim.engine import Simulator

        spec = ElementSpec(kind, ELEMENT_PARAMS[kind])
        rt = ElementSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert rt == spec
        element = rt.factory(seed=5)(Simulator(), object())
        assert hasattr(element, "receive")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown element"):
            ElementSpec("warp_drive")

    def test_bad_params_fail_at_construction_with_kind_named(self):
        with pytest.raises(ConfigurationError, match="constant_jitter"):
            ElementSpec("constant_jitter", {"etaa": 0.005})
        with pytest.raises(ConfigurationError, match="random_loss"):
            ElementSpec("random_loss", {"loss_prob": 2.0})

    def test_non_json_params_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            ElementSpec("constant_jitter", {"eta": object()})

    def test_tuple_params_normalize_to_lists(self):
        spec = ElementSpec("targeted_loss", {"drop_seqs": (1, 2)})
        assert spec.params["drop_seqs"] == [1, 2]


class TestFaultSpecs:
    """Element windows, and the version-1 ``faults`` reader."""

    @pytest.mark.parametrize("kind", sorted(V1_FAULTS))
    def test_every_kind_round_trips_and_builds(self, kind):
        from repro.sim.engine import Simulator
        from repro.sim.faults import WindowGate

        params, expected = V1_FAULTS[kind]
        spec = ScenarioSpec.from_json(v1_document(
            [{"kind": kind, "start": 1.0, "end": 5.0, "params": params}],
            seed=9))
        element, = spec.flows[0].data_elements
        assert element == expected
        assert ElementSpec.from_json(
            json.loads(json.dumps(element.to_json()))) == element
        assert "faults" not in spec.dumps()
        assert ScenarioSpec.loads(spec.dumps()) == spec
        gate = element.factory(seed=3)(Simulator(), object())
        assert isinstance(gate, WindowGate)
        assert (gate.start, gate.end) == (1.0, 5.0)

    def test_infinite_horizon_round_trips(self):
        element = ElementSpec("flap", ELEMENT_PARAMS["flap"], start=2.0)
        rt = ElementSpec.from_json(
            json.loads(json.dumps(element.to_json())))
        assert (rt.start, rt.end) == (2.0, float("inf"))
        assert rt == element

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown element"):
            ElementSpec("meteor_strike", start=0.0, end=1.0)
        with pytest.raises(ConfigurationError,
                           match="unknown version-1 fault"):
            ScenarioSpec.from_json(v1_document(
                [{"kind": "meteor_strike", "start": 0.0, "end": 1.0}]))

    def test_explicit_seed_beats_derived(self):
        import random

        from repro.sim.engine import Simulator

        def first_draw(element):
            gate = element.factory(seed=7)(Simulator(), object())
            return gate.impaired._rng.random()

        pinned = ElementSpec("gilbert_elliott",
                             {"mean_loss": 0.02, "seed": 42},
                             start=0.0, end=10.0)
        unpinned = ElementSpec("gilbert_elliott", {"mean_loss": 0.02},
                               start=0.0, end=10.0)
        assert first_draw(pinned) == random.Random(42).random()
        assert first_draw(unpinned) == random.Random(7).random()

    def test_bad_params_named_in_error(self):
        with pytest.raises(ConfigurationError, match="flap"):
            ElementSpec("flap", {"wrong": 1.0}, start=0.0, end=1.0)

    @pytest.mark.parametrize("faults", [
        5, {"windows": 5}, {"windows": [5]},
        {"windows": [{"kind": "blackout", "start": 1.0}]},
        {"windows": [{"kind": ["blackout"], "start": 1.0, "end": 2.0}]},
        {"windows": [], "seed": "x"},
    ])
    def test_malformed_v1_schedule_rejected(self, faults):
        doc = v1_document([])
        doc["flows"][0]["faults"] = faults
        with pytest.raises(SpecValidationError):
            ScenarioSpec.from_json(doc)

    def test_empty_v1_schedule_upgrades_to_nothing(self):
        spec = ScenarioSpec.from_json(v1_document([]))
        assert spec.flows[0].data_elements == ()

    @pytest.mark.parametrize("kind", sorted(
        k for k, entry in ELEMENTS.items() if not entry.windowable))
    def test_in_order_holding_kinds_refuse_a_window(self, kind):
        # A gate closing over held packets would let later ones pass
        # them: jitter kinds and delay are all-run or not at all.
        with pytest.raises(SpecValidationError, match="in order"):
            ElementSpec(kind, ELEMENT_PARAMS[kind], start=1.0, end=2.0)

    def test_v1_always_on_window_is_ungated_and_counts_as_a_window(self):
        # [0, inf) -> no gate; the seed index k still counts every
        # window of the schedule, stochastic or not.
        spec = ScenarioSpec.from_json(v1_document([
            {"kind": "blackout", "start": 3.0, "end": 4.0, "params": {}},
            {"kind": "duplicate", "start": 0.0, "end": float("inf"),
             "params": {"prob": 0.1}}]))
        blackout, duplicate = spec.flows[0].data_elements
        schedule_seed = derive_seed(7, "flow", 0, "faults")
        assert duplicate == ElementSpec(
            "duplicate", {"dup_prob": 0.1,
                          "seed": schedule_seed * 1000 + 1})
        assert (duplicate.start, duplicate.end) == (None, None)

    def test_v1_explicit_zero_schedule_seed_is_a_seed(self):
        window = {"kind": "gilbert_elliott", "start": 0.0, "end": 9.0,
                  "params": {"mean_loss": 0.02}}
        spec = ScenarioSpec.from_json(v1_document([window, window],
                                                  seed=0))
        assert [e.params["seed"] for e in spec.flows[0].data_elements] \
            == [0, 1]

    def test_v1_windows_follow_the_plain_data_elements(self):
        doc = v1_document([{"kind": "blackout", "start": 1.0, "end": 2.0}])
        doc["flows"][0]["data_elements"] = [
            {"kind": "random_loss", "params": {"loss_prob": 0.01}}]
        doc["link"]["faults"] = {"windows": [
            {"kind": "flap", "start": 0.0, "end": float("inf"),
             "params": {"period": 2.0, "down_time": 0.25}}]}
        spec = ScenarioSpec.from_json(doc)
        assert [e.kind for e in spec.flows[0].data_elements] \
            == ["random_loss", "blackout"]
        assert spec.link.elements == (
            ElementSpec("flap", {"period": 2.0, "down_time": 0.25}),)


def two_flow_spec(seed=7):
    return ScenarioSpec(
        link=LinkSpec(rate=units.mbps(12), buffer_bdp=4.0,
                      elements=(ElementSpec("blackout", start=2.0,
                                            end=2.5),)),
        flows=(
            FlowSpec(cca=CCASpec("vegas"), rm=RM),
            FlowSpec(cca=CCASpec("bbr"), rm=RM,
                     ack_elements=(ElementSpec("constant_jitter",
                                               {"eta": 0.005}),),
                     data_elements=(ElementSpec(
                         "gilbert_elliott", {"mean_loss": 0.02},
                         start=0.0, end=10.0),)),
        ),
        seed=seed)


class TestScenarioSpec:
    def test_round_trip_lossless(self):
        spec = two_flow_spec()
        assert ScenarioSpec.loads(spec.dumps()) == spec

    def test_needs_a_flow(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ScenarioSpec(link=LinkSpec(rate=1e6), flows=())

    def test_version_check(self):
        data = two_flow_spec().to_json()
        data["version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            ScenarioSpec.from_json(data)

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "scenario.json")
        spec = two_flow_spec()
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_load_missing_file_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ScenarioSpec.load("/nonexistent/spec.json")

    def test_default_labels_name_the_cca(self):
        flows = two_flow_spec().build().flows
        assert [flow.label for flow in flows] == ["vegas#0", "bbr#1"]

    def test_same_seed_same_run(self):
        a = two_flow_spec(seed=3).run(duration=3.0, warmup=1.0)
        b = two_flow_spec(seed=3).run(duration=3.0, warmup=1.0)
        assert [s.throughput for s in a.stats] == \
            [s.throughput for s in b.stats]

    def test_round_tripped_spec_runs_identically(self):
        spec = two_flow_spec()
        direct = spec.run(duration=3.0, warmup=1.0)
        replayed = ScenarioSpec.loads(spec.dumps()).run(duration=3.0,
                                                        warmup=1.0)
        assert [s.throughput for s in direct.stats] == \
            [s.throughput for s in replayed.stats]
        assert [s.mean_rtt for s in direct.stats] == \
            [s.mean_rtt for s in replayed.stats]

    def test_gate_open_forever_runs_as_ungated(self):
        def run(**window):
            loss = ElementSpec("gilbert_elliott", {"mean_loss": 0.02},
                               **window)
            dup = ElementSpec("duplicate", {"dup_prob": 0.05}, **window)
            spec = ScenarioSpec(
                link=LinkSpec(rate=units.mbps(12), elements=(dup,)),
                flows=(FlowSpec(cca=CCASpec("reno"), rm=RM,
                                data_elements=(loss,)),),
                seed=7)
            return run_digests(spec.run(duration=3.0, warmup=1.0))

        assert run(start=0.0, end=float("inf")) == run()

    @pytest.mark.parametrize("element", [
        ElementSpec("blackout", start=1.0, end=1.2),
        ElementSpec("flap", {"period": 0.5, "down_time": 0.1},
                    start=0.5, end=2.0),
        ElementSpec("gilbert_elliott", {"mean_loss": 0.05},
                    start=0.5, end=2.5),
        ElementSpec("reorder", {"reorder_prob": 0.1, "extra_delay": 0.01},
                    start=0.5, end=2.5),
        ElementSpec("duplicate", {"dup_prob": 0.1}, start=0.5, end=2.5),
    ], ids=lambda e: e.kind)
    def test_window_on_the_ack_path_is_sentinel_clean(self, element):
        spec = ScenarioSpec(
            link=LinkSpec(rate=units.mbps(12), buffer_bdp=4.0),
            flows=(FlowSpec(cca=CCASpec("reno"), rm=RM,
                            ack_elements=(element,)),
                   FlowSpec(cca=CCASpec("vegas"), rm=RM)),
            seed=7)
        result = spec.run(duration=3.0, invariants="strict")
        assert all(s.throughput > 0 for s in result.stats)

    @pytest.mark.parametrize("element", [
        ElementSpec("random_loss", {"loss_prob": 0.05},
                    start=0.5, end=2.0),
        ElementSpec("periodic_loss", {"period": 20}, start=0.5, end=2.0),
    ], ids=lambda e: e.kind)
    def test_window_on_a_plain_loss_kind_is_sentinel_clean(self, element):
        def losses(*elements):
            spec = ScenarioSpec(   # unbounded buffer: no queue drops
                link=LinkSpec(rate=units.mbps(12)),
                flows=(FlowSpec(cca=CCASpec("reno"), rm=RM,
                                data_elements=elements),),
                seed=7)
            return spec.run(duration=3.0,
                            invariants="strict").stats[0].losses

        # The window is real: a gate that opens after the run ends
        # loses nothing, like no element at all.
        late = ElementSpec(element.kind, element.params, start=5.0)
        assert losses() == losses(late) == 0 < losses(element)

    def test_run_needs_duration(self):
        with pytest.raises(ConfigurationError, match="duration"):
            single_flow_scenario(CCASpec("vegas"), rate=1e6, rm=RM).run()

    def test_embedded_duration_used_and_overridable(self):
        spec = single_flow_scenario(CCASpec("vegas"), rate=1e6, rm=RM,
                                    duration=2.0)
        result = spec.run()
        assert result.duration == pytest.approx(2.0)
        assert spec.run(duration=1.0).duration == pytest.approx(1.0)

    def test_with_link_rate_and_seed(self):
        spec = two_flow_spec(seed=1)
        faster = spec.with_link_rate(units.mbps(50))
        assert faster.link.rate == units.mbps(50)
        assert faster.flows == spec.flows
        assert spec.with_seed(9).seed == 9

    def test_explicit_cca_seed_survives_root_seed_change(self):
        def bbr_phase(root_seed):
            spec = ScenarioSpec(
                link=LinkSpec(rate=units.mbps(10)),
                flows=(FlowSpec(cca=CCASpec("bbr", {"seed": 3}),
                                rm=RM),),
                seed=root_seed)
            return spec.build().flows[0].sender.cca._rng.random()

        assert bbr_phase(0) == bbr_phase(123)


class TestSpecProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        rate=st.floats(min_value=1e5, max_value=1e8),
        rm=st.floats(min_value=0.001, max_value=0.5),
        n_flows=st.integers(min_value=1, max_value=4),
        cca=st.sampled_from(registry.names()),
    )
    def test_random_specs_round_trip(self, seed, rate, rm, n_flows, cca):
        spec = ScenarioSpec(
            link=LinkSpec(rate=rate),
            flows=tuple(FlowSpec(cca=CCASpec(cca), rm=rm)
                        for _ in range(n_flows)),
            seed=seed)
        assert ScenarioSpec.loads(spec.dumps()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=25, deadline=None)
    @given(root=st.integers(min_value=0, max_value=2**62),
           path=st.lists(st.one_of(st.integers(min_value=0,
                                               max_value=1000),
                                   st.text(min_size=0, max_size=12)),
                         min_size=0, max_size=4))
    def test_derive_seed_stable_and_bounded(self, root, path):
        a = derive_seed(root, *path)
        assert a == derive_seed(root, *path)
        assert 0 <= a < 2 ** 63


class TestSpecInputHardening:
    """NaN/Inf/negative inputs fail at construction, not mid-sim.

    Naive ``x <= 0`` guards let NaN through (every NaN comparison is
    False); the validators close that hole with a typed
    :class:`~repro.errors.SpecValidationError`, which subclasses
    ConfigurationError so existing callers keep catching it.
    """

    NAN = float("nan")
    INF = float("inf")

    def test_spec_validation_error_is_configuration_error(self):
        from repro.errors import SpecValidationError
        assert issubclass(SpecValidationError, ConfigurationError)

    @pytest.mark.parametrize("rm", [NAN, INF, -INF, 0.0, -0.04,
                                    None, "fast", True])
    def test_flow_rm_rejected(self, rm):
        from repro.errors import SpecValidationError
        with pytest.raises(SpecValidationError):
            FlowSpec(cca=CCASpec("vegas"), rm=rm)

    @pytest.mark.parametrize("start", [NAN, -1.0, INF])
    def test_flow_start_time_rejected(self, start):
        from repro.errors import SpecValidationError
        with pytest.raises(SpecValidationError):
            FlowSpec(cca=CCASpec("vegas"), rm=RM, start_time=start)

    @pytest.mark.parametrize("field, value", [
        ("mss", 0), ("mss", -1500), ("mss", 1500.0), ("mss", True),
        ("ack_every", 0), ("burst_size", 0), ("ack_timeout", NAN),
        ("ack_timeout", 0.0),
    ])
    def test_flow_int_fields_rejected(self, field, value):
        from repro.errors import SpecValidationError
        with pytest.raises(SpecValidationError):
            FlowSpec(cca=CCASpec("vegas"), rm=RM, **{field: value})

    @pytest.mark.parametrize("rate", [NAN, INF, 0.0, -1e6, None])
    def test_link_rate_rejected(self, rate):
        from repro.errors import SpecValidationError
        with pytest.raises(SpecValidationError):
            LinkSpec(rate=rate)

    @pytest.mark.parametrize("field, value", [
        ("buffer_bytes", NAN), ("buffer_bytes", -1.0),
        ("buffer_bytes", 0), ("buffer_bdp", 0.0),
        ("buffer_bdp", INF), ("ecn_threshold_bytes", 0.0),
    ])
    def test_link_optional_fields_rejected(self, field, value):
        from repro.errors import SpecValidationError
        with pytest.raises(SpecValidationError):
            LinkSpec(rate=units.mbps(10), **{field: value})

    @pytest.mark.parametrize("kwargs", [
        {"duration": NAN}, {"duration": 0.0}, {"duration": INF},
        {"warmup": NAN}, {"warmup": -1.0},
        {"duration": 2.0, "warmup": 2.0},     # warmup >= duration
        {"sample_interval": 0.0}, {"seed": 1.5}, {"seed": True},
    ])
    def test_scenario_fields_rejected(self, kwargs):
        from repro.errors import SpecValidationError
        flow = FlowSpec(cca=CCASpec("vegas"), rm=RM)
        with pytest.raises(SpecValidationError):
            ScenarioSpec(link=LinkSpec(rate=units.mbps(10)),
                         flows=(flow,), **kwargs)

    @pytest.mark.parametrize("start, end", [
        (NAN, 2.0), (1.0, NAN), (float("inf"), 3.0), (-1.0, 2.0),
        (3.0, 1.0),
    ])
    def test_fault_window_endpoints_rejected(self, start, end):
        with pytest.raises(SpecValidationError):
            ElementSpec("blackout", start=start, end=end)

    def test_empty_window_rejected_at_construction(self):
        # start == end used to construct and then fail at build, as a
        # one-row failure table in the middle of 'repro run --spec'.
        with pytest.raises(SpecValidationError, match="start < end"):
            ElementSpec("blackout", start=1.0, end=1.0)
        data = two_flow_spec().to_json()
        data["link"]["elements"][0].update(start=1.0, end=1.0)
        with pytest.raises(SpecValidationError, match="start < end"):
            ScenarioSpec.from_json(data)

    def test_fault_window_infinite_end_stays_legal(self):
        window = ElementSpec("blackout", start=1.0, end=float("inf"))
        assert window.end == float("inf")

    @pytest.mark.parametrize("document", [
        5,
        {"kind": "delay", "params": 5},
        {"kind": ["x"]},
        {"params": {}},
    ])
    def test_malformed_element_document_rejected(self, document):
        with pytest.raises(SpecValidationError):
            ElementSpec.from_json(document)
        for where in ("data_elements", "ack_elements"):
            data = two_flow_spec().to_json()
            data["flows"][0][where] = [document]
            with pytest.raises(SpecValidationError):
                ScenarioSpec.from_json(data)
        data = two_flow_spec().to_json()
        data["link"]["elements"] = [document]
        with pytest.raises(SpecValidationError):
            ScenarioSpec.from_json(data)

    @pytest.mark.parametrize("topology, where, value", [
        # A document that is not an object...
        (False, (), [1, 2]),
        (False, ("link",), 5),
        (False, ("flows", 0), 5),
        (False, ("flows", 0, "cca"), "vegas"),
        (False, ("flows", 0, "cca", "name"), [1]),
        (False, ("flows", 0, "cca", "params"), [1]),
        (True, ("topology",), 5),
        (True, ("topology", "nodes", 0), "n0"),
        (True, ("topology", "links", 0), 5),
        # ...a list that is not a list...
        (False, ("flows",), 5),
        (True, ("flows", 0, "path"), 5),
        (True, ("topology", "nodes"), 5),
        (True, ("topology", "links"), 5),
        # ...and a missing required key.
        (False, ("flows",), None),
        (False, ("link", "rate"), None),
        (False, ("flows", 0, "rm"), None),
        (False, ("flows", 0, "cca", "name"), None),
        (True, ("topology", "nodes", 0, "id"), None),
        (True, ("topology", "links", 0, "id"), None),
    ])
    def test_malformed_nested_document_rejected(self, topology, where,
                                                value):
        """Every ``from_json`` fails typed; ``None`` deletes the key."""
        spec = two_flow_spec()
        if topology:
            spec = ScenarioSpec(
                topology=parking_lot_topology([units.mbps(10)]),
                flows=spec.flows)
        data = spec.to_json()
        if not where:
            data = value
        else:
            owner = data
            for key in where[:-1]:
                owner = owner[key]
            if value is None:
                del owner[where[-1]]
            else:
                owner[where[-1]] = value
        with pytest.raises(SpecValidationError):
            ScenarioSpec.from_json(data)
        if where[:1] == ("topology",):
            with pytest.raises(SpecValidationError):
                TopologySpec.from_json(data["topology"])

    def test_element_list_must_be_a_list(self):
        data = two_flow_spec().to_json()
        data["link"]["elements"] = {"kind": "blackout"}
        with pytest.raises(SpecValidationError, match="list"):
            ScenarioSpec.from_json(data)

    def test_malformed_json_fails_at_from_json(self):
        # The same validators run on the from_json path, so a corrupted
        # spec file cannot smuggle a NaN past construction.
        from repro.errors import SpecValidationError
        flow = FlowSpec(cca=CCASpec("vegas"), rm=RM)
        spec = ScenarioSpec(link=LinkSpec(rate=units.mbps(10)),
                            flows=(flow,), duration=2.0)
        data = spec.to_json()
        data["link"]["rate"] = float("nan")
        with pytest.raises(SpecValidationError):
            ScenarioSpec.from_json(data)
        data = spec.to_json()
        data["flows"][0]["rm"] = -0.04
        with pytest.raises(SpecValidationError):
            ScenarioSpec.from_json(data)

    def test_valid_spec_still_constructs(self):
        flow = FlowSpec(cca=CCASpec("vegas"), rm=RM)
        spec = ScenarioSpec(link=LinkSpec(rate=units.mbps(10)),
                            flows=(flow,), duration=2.0, warmup=0.5)
        assert ScenarioSpec.loads(spec.dumps()) == spec
