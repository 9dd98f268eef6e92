"""Golden-trace determinism guard: the scenario table and its capture.

The hot-path optimizations (heap-entry tuples, RTO deadline deferral,
the immediate-ACK path, array-backed recorders) are only admissible
because they are *behavior-preserving*: the same floats, in
the same order, through the same operations. This module makes that
claim checkable. It runs a fixed battery of short scenarios spanning
every registered CCA and every hot code path (delayed ACKs, bursts,
ECN marking, jitter elements, gated impairments, duplication), plus the
paper's seven Section 5 experiments at a tenth of their rate, and hashes

* the raw recorder time series of every flow and the queue,
* the :meth:`repro.sim.runner.RunResult.summary` digest,
* a mini rate-delay sweep's curve JSON, and
* the content-address cache keys of the mini sweep's points

into SHA-256 digests (:mod:`repro.sim.digests`).
``tests/test_golden_traces.py`` asserts the digests match the committed
file, so any optimization that perturbs a single bit of output — or a
single cache key — fails loudly.

Regenerate after an *intentional* behavior change, from the repo root::

    PYTHONPATH=src python -m tests.golden --write tests/golden_traces.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro import units
from repro.analysis import starvation
from repro.analysis.sweep import run_rate_delay_point, sweep_rate_delay
from repro.ccas import registry
from repro.sim.digests import digest, run_digests
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec, NodeSpec,
                        ScenarioSpec, TopoLinkSpec, TopologySpec,
                        parking_lot_topology, single_flow_scenario)
from repro.spec.seeds import derive_seed
from repro.store.keys import point_cache_key

GOLDEN_SCHEMA_VERSION = 1

#: Mini-sweep configuration (kept tiny: the digest is about fidelity,
#: not statistics).
SWEEP_CCA = "copa"
SWEEP_RATES = (2.0, 6.0, 12.0)
SWEEP_RM = units.ms(40)
SWEEP_DURATION = 4.0
SWEEP_SEED = 3


def capture_run(spec: ScenarioSpec) -> Dict[str, str]:
    """Digests of one scenario run: raw traces + summary. A spec with
    no embedded duration runs the battery's 3 s with 1 s of warmup."""
    if spec.duration is None:
        spec = replace(spec, duration=3.0, warmup=1.0)
    return run_digests(spec.run())


def _single(cca: str, seed: int = 5, **flow_kwargs: Any) -> ScenarioSpec:
    spec = single_flow_scenario(CCASpec(cca), rate=units.mbps(12),
                                rm=units.ms(40), seed=seed)
    if flow_kwargs:
        spec = replace(spec, flows=(replace(spec.flows[0],
                                            **flow_kwargs),))
    return spec


def _v1_seed(*owner: Any) -> int:
    """What a version-1 schedule on ``owner`` gave its first window
    (``schedule_seed * 1000 + 0``) under the battery's root seed 5."""
    return derive_seed(5, *owner, "faults") * 1000


def golden_scenarios() -> Dict[str, ScenarioSpec]:
    """The fixed scenario battery, keyed by stable name.

    One short single-flow run per registered CCA (so a CCA-specific
    fast path can't slip through), plus variants exercising each hot
    path the optimizations touch.
    """
    scenarios: Dict[str, ScenarioSpec] = {}
    for cca in registry.names():
        scenarios[f"single/{cca}"] = _single(cca)

    # Two competing flows through one bottleneck, ACK-path jitter on
    # flow 1 — exercises multi-flow interleaving and JitterElement.
    scenarios["two_flow/ack_jitter"] = ScenarioSpec(
        link=LinkSpec(rate=units.mbps(16)),
        flows=(
            FlowSpec(cca=CCASpec("copa"), rm=units.ms(40)),
            FlowSpec(cca=CCASpec("reno"), rm=units.ms(40),
                     start_time=0.5,
                     ack_elements=(ElementSpec(
                         "constant_jitter", {"eta": 0.004}),)),
        ),
        seed=5)

    # Delayed ACKs (skips the ack_every == 1 receiver fast path) and
    # ACK flush timers.
    scenarios["delayed_ack/reno"] = _single(
        "reno", ack_every=4, ack_timeout=0.02)

    # Sender bursts (pacing-loop batching).
    scenarios["burst/bbr"] = _single("bbr", burst_size=4)

    # ECN marking at the queue plus a marking-reactive CCA.
    ecn = single_flow_scenario(CCASpec("ecn-aimd"), rate=units.mbps(12),
                               rm=units.ms(40), seed=5)
    scenarios["ecn/ecn-aimd"] = replace(
        ecn, link=replace(ecn.link, ecn_threshold_bytes=30000.0))

    # Impairments: stochastic loss plus a gated blackout. These three
    # entries were captured from version-1 specs, whose fault schedules
    # seeded window k with ``schedule_seed * 1000 + k``; the pinned
    # seeds are what the version-1 reader produces for
    # tests/data/spec_v1/*.json (test_golden_traces proves it).
    scenarios["faults/vegas"] = _single(
        "vegas",
        data_elements=(
            ElementSpec("gilbert_elliott",
                        {"mean_loss": 0.01,
                         "seed": _v1_seed("flow", 0)}),
            ElementSpec("blackout", start=1.2, end=1.45),
        ))
    scenarios["faults/duplicate"] = _single(
        "reno",
        data_elements=(
            ElementSpec("duplicate", {"dup_prob": 0.02,
                                      "seed": _v1_seed("flow", 0)}),
        ))

    # The paper's Copa poisoning setup: first-packet-exempt jitter.
    scenarios["poison/copa"] = _single(
        "copa",
        ack_elements=(ElementSpec("exempt_first_jitter",
                                  {"eta": 0.002, "exempt_seqs": [0]}),))

    # ACK aggregation against a rate-based CCA.
    scenarios["aggregation/vivace"] = _single(
        "vivace",
        ack_elements=(ElementSpec("ack_aggregation",
                                  {"period": 0.008}),))

    # Multi-bottleneck coverage: the parking-lot shape (a long flow
    # over both queues against single-hop cross traffic) pins the
    # topology builder's wiring and per-flow routing.
    scenarios["topo/parking_lot"] = ScenarioSpec(
        topology=parking_lot_topology([units.mbps(10), units.mbps(8)],
                                      buffer_bdp=4.0),
        flows=(
            FlowSpec(cca=CCASpec("copa"), rm=units.ms(40)),
            FlowSpec(cca=CCASpec("reno"), rm=units.ms(30),
                     path=("b0",)),
            FlowSpec(cca=CCASpec("cubic"), rm=units.ms(30),
                     start_time=0.4, path=("b1",)),
        ),
        seed=5)

    # Per-link propagation delay on the second hop (posted by that
    # queue, with the flow's rm behind it as a DelayElement).
    scenarios["topo/two_hop_delay"] = ScenarioSpec(
        topology=parking_lot_topology([units.mbps(12), units.mbps(12)],
                                      delays=[0.0, units.ms(10)]),
        flows=(FlowSpec(cca=CCASpec("bbr"), rm=units.ms(40)),),
        seed=5)

    # Bursty loss in front of the second link only (a link's shared
    # element chain, met by both flows).
    scenarios["topo/fault_second_hop"] = ScenarioSpec(
        topology=TopologySpec(
            nodes=(NodeSpec("n0"), NodeSpec("n1"), NodeSpec("n2")),
            links=(
                TopoLinkSpec(id="b0", src="n0", dst="n1",
                             rate=units.mbps(10)),
                TopoLinkSpec(id="b1", src="n1", dst="n2",
                             rate=units.mbps(10),
                             elements=(ElementSpec(
                                 "gilbert_elliott",
                                 {"mean_loss": 0.02,
                                  "seed": _v1_seed("link", "b1")}),)),
            )),
        flows=(FlowSpec(cca=CCASpec("vegas"), rm=units.ms(40)),
               FlowSpec(cca=CCASpec("reno"), rm=units.ms(40),
                        path=("b1",))),
        seed=5)

    # The paper's Section 5 experiments as the starvation library
    # builds them, at a tenth of the paper's link rate for 10 s
    # (digests captured from the closure-built library they replaced).
    tenth = {"rate_mbps": 12.0, "duration": 10.0}
    scenarios.update({
        "section5/copa_pair": starvation.copa_two_flow_poisoned.spec(
            **tenth),
        "section5/copa_single": starvation.copa_single_flow_poisoned.spec(
            **tenth),
        "section5/bbr_rtt": starvation.bbr_rtt_starvation.spec(**tenth),
        "section5/vivace_agg": starvation.vivace_ack_aggregation.spec(
            **tenth),
        "section5/allegro_loss": starvation.allegro_asymmetric_loss.spec(
            **tenth),
        "section5/allegro_single":
            starvation.allegro_single_flow_loss.spec(**tenth),
        "section5/fig7_reno": starvation.loss_based_delayed_acks.spec(
            "reno", rate_mbps=0.6, duration=10.0),
    })
    return scenarios


def capture_sweep() -> Dict[str, Any]:
    """Digest the mini-sweep curve JSON and replicate its cache keys.

    The cache keys are derived exactly the way
    :func:`repro.analysis.sweep.sweep_rate_delay` derives them, so a
    change that silently shifts content addresses (orphaning every warm
    cache) is caught even though results stay identical.
    """
    curve = sweep_rate_delay(SWEEP_CCA, list(SWEEP_RATES), SWEEP_RM,
                             duration=SWEEP_DURATION, seed=SWEEP_SEED)
    keys: Dict[str, str] = {}
    for rate_mbps in SWEEP_RATES:
        key = f"{rate_mbps:g}mbps"
        point_spec = single_flow_scenario(
            CCASpec(SWEEP_CCA), rate=units.mbps(rate_mbps), rm=SWEEP_RM
        ).with_seed(derive_seed(SWEEP_SEED, "sweep", key))
        params = {"scenario": point_spec.to_json(),
                  "duration": SWEEP_DURATION,
                  "warmup": SWEEP_DURATION * 0.5}
        keys[key] = point_cache_key(run_rate_delay_point, params)
    return {"curve": digest(curve.to_json()), "cache_keys": keys}


def capture_all(progress: bool = False) -> Dict[str, Any]:
    """Run the full battery and return the golden document."""
    runs: Dict[str, Dict[str, str]] = {}
    for name, spec in sorted(golden_scenarios().items()):
        if progress:
            print(f"golden: {name}", file=sys.stderr)
        runs[name] = capture_run(spec)
    if progress:
        print("golden: mini-sweep", file=sys.stderr)
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "runs": runs,
        "sweep": capture_sweep(),
    }


def compare(current: Dict[str, Any],
            golden: Dict[str, Any]) -> List[str]:
    """Human-readable mismatches between a fresh capture and the file."""
    problems: List[str] = []
    golden_runs = golden.get("runs", {})
    current_runs = current.get("runs", {})
    for name in sorted(set(golden_runs) | set(current_runs)):
        want, got = golden_runs.get(name), current_runs.get(name)
        if want is None or got is None:
            problems.append(f"{name}: present in only one capture")
            continue
        for part in ("traces", "summary"):
            if want.get(part) != got.get(part):
                problems.append(f"{name}: {part} digest changed "
                                f"({want.get(part)} -> {got.get(part)})")
    want_sweep = golden.get("sweep", {})
    got_sweep = current.get("sweep", {})
    if want_sweep.get("curve") != got_sweep.get("curve"):
        problems.append("mini-sweep: curve JSON digest changed")
    if want_sweep.get("cache_keys") != got_sweep.get("cache_keys"):
        problems.append("mini-sweep: cache keys changed (warm caches "
                        "would be orphaned)")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Capture or check golden trace digests.")
    parser.add_argument("--write", metavar="PATH",
                        help="capture and write the golden file")
    parser.add_argument("--check", metavar="PATH",
                        help="capture and compare against a golden file")
    args = parser.parse_args(argv)
    if not args.write and not args.check:
        parser.error("pass --write PATH or --check PATH")
    doc = capture_all(progress=True)
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(doc['runs'])} scenario digests to "
              f"{args.write}", file=sys.stderr)
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        problems = compare(doc, golden)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        print("golden traces match", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
