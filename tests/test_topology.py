"""Tests for the topology graph layer (spec, builder, analysis).

The load-bearing claims under test:

* ``TopologySpec``/``TopoLinkSpec`` validate eagerly and survive JSON
  byte-for-byte, like every other spec.
* A ``ScenarioSpec`` without a topology is the legacy dumbbell,
  unchanged — same JSON shape, same run digests as a one-link graph.
* Per-link element seeds derive from the *link id*
  (``derive_seed(S, "link", id, j)``) so reordering links never
  silently reshuffles RNG streams; the pinned literals below are a
  compatibility contract.
* A parking lot (3 flows, 2 bottlenecks) runs clean under the strict
  sentinel, serially and on a process pool, bit-identically.
* A competition matrix (``compile_matrix_plan`` run by ``run_plan``)
  caches through the content-addressed store and encodes starved
  (infinite-ratio) pairs as strict JSON.
* The fuzzer's topology scenarios are valid by construction and the
  shrinker can collapse them back to a dumbbell.
"""

import json
import math
from dataclasses import replace

import pytest

from repro import units
from repro.analysis.backends import ProcessPoolBackend, SerialBackend
from repro.analysis.competition import (CompetitionMatrix,
                                        compile_matrix_plan,
                                        run_competition_point)
from repro.analysis.harness import ResilientSweep, RunBudget
from repro.analysis.plan import run_plan
from repro.errors import (ConfigurationError, SpecValidationError)
from repro.fuzz.generate import FuzzConfig, generate_spec
from repro.fuzz.shrink import _candidates
from repro.sim.digests import run_digests
from repro.sim.runner import FlowStats, RunResult, summarize
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                        NodeSpec, ScenarioSpec, TopoLinkSpec,
                        TopologySpec, derive_seed, parking_lot_topology)

RM = units.ms(40)


def two_hop_topology(**first_link_extra):
    return TopologySpec(
        nodes=(NodeSpec("n0"), NodeSpec("n1"), NodeSpec("n2")),
        links=(
            TopoLinkSpec(id="b0", src="n0", dst="n1",
                         rate=units.mbps(10), **first_link_extra),
            TopoLinkSpec(id="b1", src="n1", dst="n2",
                         rate=units.mbps(8)),
        ))


def parking_lot_scenario(seed=3):
    """3 flows over 2 bottlenecks: one long, one per hop."""
    return ScenarioSpec(
        topology=parking_lot_topology(
            [units.mbps(10), units.mbps(8)], buffer_bdp=4.0),
        flows=(
            FlowSpec(cca=CCASpec("copa"), rm=RM),
            FlowSpec(cca=CCASpec("reno"), rm=units.ms(30),
                     path=("b0",)),
            FlowSpec(cca=CCASpec("cubic"), rm=units.ms(30),
                     path=("b1",)),
        ),
        seed=seed, duration=2.0, warmup=0.5)


def dumbbell_scenario():
    return ScenarioSpec(
        link=LinkSpec(rate=units.mbps(10), buffer_bdp=4.0),
        flows=(FlowSpec(cca=CCASpec("copa"), rm=RM),
               FlowSpec(cca=CCASpec("reno"), rm=RM, start_time=0.3)),
        seed=5, duration=2.0, warmup=0.5)


class TestTopologySpec:
    def test_round_trip_lossless(self):
        topo = two_hop_topology(
            buffer_bdp=4.0,
            elements=(ElementSpec("blackout", start=0.5, end=0.8),))
        assert TopologySpec.loads(topo.dumps()) == topo

    def test_standalone_file_with_v1_faults_is_refused_not_ignored(self):
        doc = two_hop_topology().to_json()
        doc["links"][0]["faults"] = {"windows": [
            {"kind": "blackout", "start": 0.5, "end": 0.8}]}
        with pytest.raises(SpecValidationError, match="'elements'"):
            TopologySpec.from_json(doc)

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "topo.json")
        topo = parking_lot_topology([units.mbps(10), units.mbps(8)])
        topo.save(path)
        assert TopologySpec.load(path) == topo

    def test_load_missing_file_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            TopologySpec.load("/nonexistent/topo.json")

    def test_needs_a_link(self):
        with pytest.raises(SpecValidationError):
            TopologySpec(nodes=(NodeSpec("n0"),), links=())

    def test_duplicate_link_ids_rejected(self):
        with pytest.raises(SpecValidationError, match="duplicate link"):
            TopologySpec(
                nodes=(NodeSpec("n0"), NodeSpec("n1")),
                links=(
                    TopoLinkSpec(id="b0", src="n0", dst="n1", rate=1e6),
                    TopoLinkSpec(id="b0", src="n1", dst="n0", rate=1e6),
                ))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown node"):
            TopologySpec(
                nodes=(NodeSpec("n0"),),
                links=(TopoLinkSpec(id="b0", src="n0", dst="nX",
                                    rate=1e6),))

    def test_self_loop_rejected(self):
        with pytest.raises(SpecValidationError, match="self-loop"):
            TopoLinkSpec(id="b0", src="n0", dst="n0", rate=1e6)

    def test_buffer_bytes_and_bdp_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            TopoLinkSpec(id="b0", src="n0", dst="n1", rate=1e6,
                         buffer_bytes=1000.0, buffer_bdp=2.0)

    @pytest.mark.parametrize("rate", [0, -1.0, float("nan"),
                                      float("inf"), "fast"])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(SpecValidationError):
            TopoLinkSpec(id="b0", src="n0", dst="n1", rate=rate)

    @pytest.mark.parametrize("field", ["buffer_bytes", "buffer_bdp"])
    def test_zero_buffer_rejected(self, field):
        with pytest.raises(SpecValidationError):
            TopoLinkSpec(id="b0", src="n0", dst="n1", rate=1e6,
                         **{field: 0})

    def test_default_path_is_declaration_order(self):
        topo = parking_lot_topology([1e6, 2e6, 3e6])
        assert topo.default_path() == ("b0", "b1", "b2")

    def test_path_validation(self):
        topo = two_hop_topology()
        assert topo.validate_path(["b0", "b1"]) == ("b0", "b1")
        with pytest.raises(SpecValidationError, match="empty"):
            topo.validate_path([])
        with pytest.raises(SpecValidationError, match="repeats"):
            topo.validate_path(["b0", "b0"])
        with pytest.raises(SpecValidationError, match="unknown link"):
            topo.validate_path(["bX"])
        # b1 -> b0 is disconnected (b1 ends at n2, b0 starts at n0).
        with pytest.raises(SpecValidationError, match="starts at"):
            topo.validate_path(["b1", "b0"])

    def test_with_link_rate_replaces_only_target(self):
        topo = two_hop_topology()
        faster = topo.with_link_rate("b1", units.mbps(20))
        assert faster.link("b1").rate == units.mbps(20)
        assert faster.link("b0") == topo.link("b0")
        with pytest.raises(SpecValidationError):
            topo.with_link_rate("bX", 1e6)


class TestScenarioSpecTopology:
    def test_exactly_one_of_link_or_topology(self):
        flows = (FlowSpec(cca=CCASpec("reno"), rm=RM),)
        with pytest.raises(SpecValidationError, match="exactly one"):
            ScenarioSpec(link=LinkSpec(rate=1e6),
                         topology=two_hop_topology(), flows=flows)
        with pytest.raises(SpecValidationError, match="exactly one"):
            ScenarioSpec(flows=flows)

    def test_path_without_topology_rejected(self):
        with pytest.raises(SpecValidationError):
            ScenarioSpec(
                link=LinkSpec(rate=1e6),
                flows=(FlowSpec(cca=CCASpec("reno"), rm=RM,
                                path=("b0",)),))

    def test_bad_flow_path_names_the_flow(self):
        with pytest.raises(SpecValidationError, match="flow 1"):
            ScenarioSpec(
                topology=two_hop_topology(),
                flows=(FlowSpec(cca=CCASpec("reno"), rm=RM),
                       FlowSpec(cca=CCASpec("reno"), rm=RM,
                                path=("bX",))))

    def test_round_trip_lossless(self):
        spec = parking_lot_scenario()
        again = ScenarioSpec.loads(spec.dumps())
        assert again == spec
        assert again.dumps() == spec.dumps()

    def test_dumbbell_json_shape_unchanged(self):
        """Legacy scenarios must serialize without topology/path keys —
        cache keys and committed spec files depend on the exact shape."""
        spec = ScenarioSpec(
            link=LinkSpec(rate=1e6),
            flows=(FlowSpec(cca=CCASpec("reno"), rm=RM),), seed=1)
        doc = spec.to_json()
        assert "topology" not in doc
        assert "path" not in doc["flows"][0]

    def test_bottleneck_rate(self):
        spec = parking_lot_scenario()
        assert spec.bottleneck_rate == units.mbps(10)

    def test_with_link_rate_targets_first_link(self):
        spec = parking_lot_scenario().with_link_rate(units.mbps(4))
        assert spec.topology.link("b0").rate == units.mbps(4)
        assert spec.topology.link("b1").rate == units.mbps(8)

    def test_per_link_fault_seeds_pinned(self):
        """Compatibility contract: a link's element seeds key off the
        link *id* — never its position in the declaration — on a branch
        disjoint from the dumbbell's. The ``"faults"`` literals are what
        the version-1 reader pins saved documents to."""
        import random

        assert derive_seed(7, "link", "b1", "faults") \
            == 7202726678156179036
        assert derive_seed(7, "link", "faults") == 7878886917356406187
        assert derive_seed(7, "link", "b1", 0) == 6572992891788178884
        assert derive_seed(7, "link", 0) == 5215593965581114956

        b0 = TopoLinkSpec(id="b0", src="n0", dst="n1", rate=1e6)
        b1 = TopoLinkSpec(id="b1", src="n1", dst="n2", rate=1e6,
                          elements=(ElementSpec("gilbert_elliott",
                                                {"mean_loss": 0.02}),))
        nodes = (NodeSpec("n0"), NodeSpec("n1"), NodeSpec("n2"))
        for declared in ((b0, b1), (b1, b0)):
            spec = ScenarioSpec(
                topology=TopologySpec(nodes=nodes, links=declared),
                flows=(FlowSpec(cca=CCASpec("reno"), rm=RM,
                                path=("b1",)),), seed=7)
            element = spec.build().flows[0].sender.path
            assert element._rng.random() == random.Random(
                derive_seed(7, "link", "b1", 0)).random()


class TestDumbbellEquivalence:
    def test_one_link_topology_matches_dumbbell_digests(self):
        """The dumbbell is the one-link special case of the graph
        builder: identical flows over a single equal link must produce
        bit-identical traces either way."""
        legacy = dumbbell_scenario()
        one_link = TopologySpec(
            nodes=(NodeSpec("n0"), NodeSpec("n1")),
            links=(TopoLinkSpec(id="b0", src="n0", dst="n1",
                                rate=units.mbps(10), buffer_bdp=4.0),))
        graph = replace(legacy, link=None, topology=one_link)
        assert run_digests(legacy.run()) == run_digests(graph.run())

    @pytest.mark.parametrize("make", [dumbbell_scenario,
                                      parking_lot_scenario])
    def test_every_route_to_a_result_agrees(self, make):
        """``spec.run()`` and the hand-driven ``spec.build()`` / run /
        summarize are one computation."""
        spec = replace(make(), sample_interval=0.01)
        window = (spec.duration, spec.warmup)
        built = spec.build()
        built.run(spec.duration)
        by_hand = RunResult(built, summarize(built, *window), *window)
        assert run_digests(spec.run()) == run_digests(by_hand)


class TestParkingLotRuns:
    def test_strict_invariants_clean(self):
        result = parking_lot_scenario().run(invariants="strict")
        assert len(result.scenario.queues) == 2
        assert result.scenario.queue is result.scenario.queues[0]
        # Every flow moved data through its declared hops.
        assert all(t > 0 for t in result.throughputs)
        for queue in result.scenario.queues:
            assert queue.invariant_errors() == []
            assert queue.arrived > 0

    def test_per_queue_conservation_counters(self):
        result = parking_lot_scenario().run()
        for queue in result.scenario.queues:
            accounted = queue.forwarded + queue.drops + len(queue._queue)
            if queue._in_service is not None:
                accounted += 1
            assert queue.arrived == accounted

    def test_serial_and_pool_runs_identical(self):
        """The acceptance bar: the same parking-lot point through a
        SerialBackend and a 2-worker spawn pool returns byte-identical
        measurements."""
        spec = parking_lot_scenario()
        points = [("lot", {"scenario": spec.to_json(),
                           "duration": 2.0, "warmup": 0.5})]
        budget = RunBudget()

        def run_with(backend):
            sweep = ResilientSweep(run_competition_point,
                                   budget=budget, backend=backend)
            outcome = sweep.run(points)
            assert not outcome.failures
            return outcome.completed

        serial = run_with(SerialBackend())
        pooled = run_with(ProcessPoolBackend(jobs=2))
        assert serial == pooled
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(pooled, sort_keys=True)


class TestThroughputRatioSentinels:
    def stats(self, *rates):
        return [FlowStats(flow_id=i, label=f"f{i}", throughput=r,
                          goodput=r, mean_rtt=0.1, min_rtt=0.1,
                          max_rtt=0.1, losses=0, retransmits=0,
                          timeouts=0)
                for i, r in enumerate(rates)]

    def result(self, *rates):
        return RunResult(scenario=None, stats=self.stats(*rates),
                         duration=1.0, warmup=0.0)

    def test_single_flow_is_one(self):
        assert self.result(5.0).throughput_ratio() == 1.0

    def test_total_starvation_is_inf(self):
        assert math.isinf(self.result(0.0, 5.0).throughput_ratio())

    def test_all_idle_is_one_not_nan(self):
        assert self.result(0.0, 0.0).throughput_ratio() == 1.0

    def test_ordinary_ratio(self):
        assert self.result(2.0, 6.0).throughput_ratio() \
            == pytest.approx(3.0)


class TestCompetitionMatrix:
    def test_pinned_pair_seed(self):
        assert derive_seed(0, "matrix", "bbr", "cubic") \
            == 6219425853858143240

    def test_matrix_caches_byte_identically(self, tmp_path):
        def matrix():
            plan = compile_matrix_plan(["reno", "vegas"], 8.0, 40.0,
                                       duration=2.0, seed=1)
            return run_plan(plan, cache_dir=str(tmp_path / "cache"))[1]
        cold = matrix()
        warm = matrix()
        assert cold.cache == {"hits": 0, "misses": 3}
        assert warm.cache == {"hits": 3, "misses": 0}
        assert json.dumps(cold.to_json(), sort_keys=True) \
            == json.dumps(warm.to_json(), sort_keys=True)
        assert not cold.failures
        # Symmetry and self-pairs.
        assert cold.ratio("reno", "vegas") == cold.ratio("vegas", "reno")
        assert cold.cell("reno", "reno") is not None

    def test_topology_matrix_overrides_first_link_rate(self):
        _, matrix = run_plan(compile_matrix_plan(
            ["reno"], 6.0, 40.0, duration=1.0,
            topology=parking_lot_topology(
                [units.mbps(99), units.mbps(8)]).to_json()))
        assert not matrix.failures
        cell = matrix.cell("reno", "reno")
        # Both flows crossed both queues at the overridden rate.
        assert all(t > 0 for t in cell["throughputs"])

    def test_inf_ratio_is_strict_json(self):
        matrix = CompetitionMatrix(
            ccas=["a", "b"], rate=1e6, rm=0.04, duration=1.0,
            cells={"a|b": {"labels": ["a#0", "b#1"],
                           "throughputs": [0.0, 5.0],
                           "goodputs": [0.0, 5.0], "losses": [0, 0]}},
            starve_threshold=50.0)
        doc = matrix.to_json()
        assert doc["cells"]["a|b"]["ratio"] == "inf"
        assert doc["cells"]["a|b"]["starved"] is True
        json.dumps(doc, allow_nan=False)  # must not raise
        assert "a|b" in matrix.starved_pairs()


class TestFuzzTopology:
    def test_generated_topology_specs_valid(self):
        config = FuzzConfig(topology_prob=1.0)
        seen_single_hop = False
        for i in range(20):
            spec = generate_spec(11, i, config)
            assert spec.topology is not None and spec.link is None
            assert 2 <= len(spec.topology.links) <= 3
            assert ScenarioSpec.loads(spec.dumps()) == spec
            for flow in spec.flows:
                if flow.path:
                    seen_single_hop = True
                    spec.topology.validate_path(flow.path)
        assert seen_single_hop

    def test_shrinker_offers_collapse_to_dumbbell(self):
        spec = parking_lot_scenario()
        candidates = dict(_candidates(spec))
        collapsed = candidates["collapse topology to dumbbell"]
        assert collapsed.topology is None
        assert collapsed.link.rate == units.mbps(10)
        assert collapsed.link.buffer_bdp == 4.0
        assert all(not f.path for f in collapsed.flows)
        # "drop last topology link" is rightly absent here: a flow's
        # explicit ("b1",) path would dangle. Without such a path the
        # reduction is offered.
        assert "drop last topology link" not in candidates
        droppable = ScenarioSpec(
            topology=spec.topology,
            flows=(FlowSpec(cca=CCASpec("copa"), rm=RM),
                   FlowSpec(cca=CCASpec("reno"), rm=RM, path=("b0",))),
            seed=3, duration=2.0, warmup=0.5)
        dropped = dict(_candidates(droppable))["drop last topology link"]
        assert dropped.topology.link_ids() == ("b0",)

    def test_shrink_collapses_greedily(self, monkeypatch):
        """With an oracle that accepts any candidate, the greedy loop
        must land on a single-flow dumbbell — proof the topology
        reductions compose with the legacy ones."""
        import repro.fuzz.shrink as shrink

        monkeypatch.setattr(shrink, "reproduces",
                            lambda spec, signature, max_events=None: True)
        outcome = shrink.shrink_spec(parking_lot_scenario(), "fake:sig")
        assert outcome.improved
        assert outcome.spec.topology is None
        assert len(outcome.spec.flows) == 1
