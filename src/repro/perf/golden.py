"""Golden-trace determinism guard.

The hot-path optimizations (heap-entry tuples, RTO deadline deferral,
the immediate-ACK path, array-backed recorders) are only admissible
because they are *behavior-preserving*: the same floats, in
the same order, through the same operations. This module makes that
claim checkable. It runs a fixed battery of short scenarios spanning
every registered CCA and every hot code path (delayed ACKs, bursts,
ECN marking, jitter elements, fault injection, duplication), plus the
paper's seven Section 5 experiments at a tenth of their rate, and hashes

* the raw recorder time series of every flow and the queue,
* the :func:`repro.analysis.metrics.summarize_run` digest,
* a mini rate-delay sweep's curve JSON, and
* the content-address cache keys of the mini sweep's points

into SHA-256 digests. ``tests/test_golden_traces.py`` asserts the
digests match the committed file (captured on the pre-optimization
code), so any optimization that perturbs a single bit of output — or a
single cache key — fails loudly.

Regenerate after an *intentional* behavior change::

    PYTHONPATH=src python -m repro.perf.golden --write tests/golden_traces.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional

from .. import units
from ..analysis import starvation
from ..analysis.metrics import summarize_run
from ..analysis.sweep import run_rate_delay_point, sweep_rate_delay
from ..ccas import registry
from ..spec import (CCASpec, ElementSpec, FaultScheduleSpec,
                    FaultWindowSpec, FlowSpec, LinkSpec, NodeSpec,
                    ScenarioSpec, TopoLinkSpec, TopologySpec,
                    parking_lot_topology, single_flow_scenario)
from ..spec.seeds import derive_seed
from ..store.keys import point_cache_key

GOLDEN_SCHEMA_VERSION = 1

#: Mini-sweep configuration (kept tiny: the digest is about fidelity,
#: not statistics).
SWEEP_CCA = "copa"
SWEEP_RATES = (2.0, 6.0, 12.0)
SWEEP_RM = units.ms(40)
SWEEP_DURATION = 4.0
SWEEP_SEED = 3


def _norm(value: Any) -> Any:
    """Digest normalization: every number to float, None passes through.

    Recorders may hold ints (byte counters) or ``None`` (pacing rate of
    a cwnd-only CCA). Storage-format changes (list of Optional vs
    ``array('d')`` with NaN) must not change the digest, so ``None``
    normalizes to NaN before hashing.
    """
    if value is None:
        return float("nan")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_norm(v) for v in value]
    if isinstance(value, dict):
        return {k: _norm(v) for k, v in value.items()}
    return value


def digest(value: Any) -> str:
    """SHA-256 over canonical (sorted-keys, NaN-normalized) JSON."""
    text = json.dumps(_norm(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _series(values: Iterable[Any]) -> List[float]:
    return [float("nan") if v is None else float(v) for v in values]


def run_digests(result: Any) -> Dict[str, str]:
    """Trace and summary digests of a finished run.

    Shared by the golden battery and the fuzz oracle's run-twice
    determinism / backend-identity checks: two runs (or two backends)
    given the same spec must produce identical digests.
    """
    traces: Dict[str, Any] = {}
    for flow in result.scenario.flows:
        rec = flow.recorder
        traces[f"flow{flow.flow_id}"] = {
            "rtt_times": _series(rec.rtt_times),
            "rtt_values": _series(rec.rtt_values),
            "sample_times": _series(rec.sample_times),
            "cwnd_values": _series(rec.cwnd_values),
            "pacing_values": _series(rec.pacing_values),
            "delivered_values": _series(rec.delivered_values),
            "received_values": _series(rec.received_values),
        }
    # First queue keeps the historical "queue" key so every dumbbell
    # digest is byte-identical to pre-topology captures; extra
    # bottlenecks (multi-hop scenarios only) digest as "queue1", ...
    for i, qrec in enumerate(result.scenario.queue_recorders):
        if qrec is None:
            continue
        traces["queue" if i == 0 else f"queue{i}"] = {
            "sample_times": _series(qrec.sample_times),
            "backlog_values": _series(qrec.backlog_values),
        }
    return {
        "traces": digest(traces),
        "summary": digest(summarize_run(result)),
    }


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

    # Fault injection: stochastic loss plus a blackout window.
    scenarios["faults/vegas"] = _single(
        "vegas",
        faults=FaultScheduleSpec(windows=(
            FaultWindowSpec("gilbert_elliott", 0.0, float("inf"),
                            {"mean_loss": 0.01}),
            FaultWindowSpec("blackout", 1.2, 1.45),
        )))
    scenarios["faults/duplicate"] = _single(
        "reno",
        faults=FaultScheduleSpec(windows=(
            FaultWindowSpec("duplicate", 0.0, float("inf"),
                            {"prob": 0.02}),
        )))

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

    # Per-link propagation delay on the second hop (the DelayElement
    # inserted between queue and flow sink).
    scenarios["topo/two_hop_delay"] = ScenarioSpec(
        topology=parking_lot_topology([units.mbps(12), units.mbps(12)],
                                      delays=[0.0, units.ms(10)]),
        flows=(FlowSpec(cca=CCASpec("bbr"), rm=units.ms(40)),),
        seed=5)

    # A fault window scoped to the second link only — exercises the
    # per-link fault seed branch derive_seed(S, "link", id, "faults").
    scenarios["topo/fault_second_hop"] = ScenarioSpec(
        topology=TopologySpec(
            nodes=(NodeSpec("n0"), NodeSpec("n1"), NodeSpec("n2")),
            links=(
                TopoLinkSpec(id="b0", src="n0", dst="n1",
                             rate=units.mbps(10)),
                TopoLinkSpec(id="b1", src="n1", dst="n2",
                             rate=units.mbps(10),
                             faults=FaultScheduleSpec(windows=(
                                 FaultWindowSpec("gilbert_elliott", 0.0,
                                                 float("inf"),
                                                 {"mean_loss": 0.02}),
                             ))),
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
