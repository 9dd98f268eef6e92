"""Tests for the declarative spec layer (repro.spec).

Covers: deterministic seed derivation, per-kind JSON round trips for
CCAs / elements / faults, ScenarioSpec round-trip losslessness, spec ==
build equivalence, and the seed-override rules (explicit beats derived).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.ccas import registry
from repro.errors import ConfigurationError
from repro.spec import (CCASpec, ELEMENTS, ElementSpec, FAULT_KINDS,
                        FaultScheduleSpec, FaultWindowSpec, FlowSpec,
                        LinkSpec, ScenarioSpec, derive_seed,
                        element_kinds, single_flow_scenario)

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
}

#: Valid params for every fault kind.
FAULT_PARAMS = {
    "blackout": {},
    "flap": {"period": 2.0, "down_time": 0.25},
    "gilbert_elliott": {"mean_loss": 0.02},
    "reorder": {"prob": 0.05, "extra_delay": 0.01},
    "duplicate": {"prob": 0.01},
    "corrupt": {"prob": 0.01},
}


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

    def test_factory_is_reusable(self):
        factory = CCASpec("vegas").make_factory(seed=1)
        assert factory() is not factory()


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

    def test_bad_params_fail_at_build_with_kind_named(self):
        from repro.sim.engine import Simulator

        spec = ElementSpec("constant_jitter", {"etaa": 0.005})
        with pytest.raises(ConfigurationError, match="constant_jitter"):
            spec.factory()(Simulator(), object())

    def test_non_json_params_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON"):
            ElementSpec("constant_jitter", {"eta": object()})

    def test_tuple_params_normalize_to_lists(self):
        spec = ElementSpec("targeted_loss", {"drop_seqs": (1, 2)})
        assert spec.params["drop_seqs"] == [1, 2]


class TestFaultSpecs:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_every_kind_round_trips_and_builds(self, kind):
        window = FaultWindowSpec(kind, 1.0, 5.0, FAULT_PARAMS[kind])
        schedule = FaultScheduleSpec(windows=(window,))
        rt = FaultScheduleSpec.from_json(
            json.loads(json.dumps(schedule.to_json())))
        assert rt == schedule
        live = rt.build(derived_seed=3)
        assert len(live.windows) == 1

    def test_infinite_horizon_round_trips(self):
        window = FaultWindowSpec("flap", 0.0, float("inf"),
                                 FAULT_PARAMS["flap"])
        schedule = FaultScheduleSpec(windows=(window,))
        rt = FaultScheduleSpec.from_json(
            json.loads(json.dumps(schedule.to_json())))
        assert rt.windows[0].end == float("inf")
        assert rt == schedule

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault"):
            FaultWindowSpec("meteor_strike", 0.0, 1.0)

    def test_explicit_seed_beats_derived(self):
        spec = FaultScheduleSpec(
            windows=(FaultWindowSpec("gilbert_elliott", 0.0, 10.0,
                                     FAULT_PARAMS["gilbert_elliott"]),),
            seed=42)
        assert spec.build(derived_seed=7).seed == 42
        unpinned = FaultScheduleSpec(windows=spec.windows)
        assert unpinned.build(derived_seed=7).seed == 7

    def test_bad_params_named_in_error(self):
        spec = FaultScheduleSpec(
            windows=(FaultWindowSpec("flap", 0.0, 1.0,
                                     {"wrong": 1.0}),))
        with pytest.raises(ConfigurationError, match="flap"):
            spec.build()

    def test_empty_schedule_is_falsy(self):
        assert not FaultScheduleSpec()
        assert FaultScheduleSpec(
            windows=(FaultWindowSpec("blackout", 0.0, 1.0),))


def two_flow_spec(seed=7):
    return ScenarioSpec(
        link=LinkSpec(rate=units.mbps(12), buffer_bdp=4.0,
                      faults=FaultScheduleSpec(windows=(
                          FaultWindowSpec("blackout", 2.0, 2.5),))),
        flows=(
            FlowSpec(cca=CCASpec("vegas"), rm=RM),
            FlowSpec(cca=CCASpec("bbr"), rm=RM,
                     ack_elements=(ElementSpec("constant_jitter",
                                               {"eta": 0.005}),),
                     faults=FaultScheduleSpec(windows=(
                         FaultWindowSpec("gilbert_elliott", 0.0, 10.0,
                                         {"mean_loss": 0.02}),))),
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
        _, flows = two_flow_spec().to_configs()
        assert flows[0].label == "vegas#0"
        assert flows[1].label == "bbr#1"

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
            _, flows = spec.to_configs()
            return flows[0].cca_factory()._rng.random()

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
        from repro.errors import SpecValidationError
        with pytest.raises(SpecValidationError):
            FaultWindowSpec(kind="blackout", start=start, end=end)

    def test_fault_window_infinite_end_stays_legal(self):
        window = FaultWindowSpec(kind="blackout", start=1.0,
                                 end=float("inf"))
        assert window.end == float("inf")

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
