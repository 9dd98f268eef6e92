"""The ``repro bench`` microbenchmark suite.

Every figure in the reproduction is built from millions of per-packet
events, so simulator speed is a feature with a regression budget like
any other. This module pins the hot paths under three fixed
microbenchmarks:

* **engine** — raw event-loop throughput: self-rescheduling no-op
  timers, nothing else. Measures scheduler + heap + dispatch cost.
* **engine churn** — the RTO pathology: every tick cancels and
  re-arms a far-future watchdog, so the heap fills with cancelled
  entries (lazy deletion). Measures how gracefully cancellation decays.
* **single flow** — a full 60 s single-flow run per CCA at 48 Mbit/s /
  50 ms. Measures the end-to-end per-packet path (sender, queue,
  delay, receiver, ACK processing, recorder).
* **topo parking lot** — a two-bottleneck parking lot (long Copa flow
  against per-hop cross traffic). Measures the topology builder's
  per-hop overhead on the same per-packet path.
* **sweep** — a cold serial 8-point Copa rate-delay sweep, the unit of
  work every Figure 3 style experiment multiplies by hundreds.

``run_suite`` returns a plain JSON-able dict; the CLI writes it to
``BENCH_sim.json``. ``compare_suites`` checks the rate metrics
(``*_per_s``) of a fresh run against a committed baseline with a
generous tolerance — CI uses it to catch catastrophic regressions
without flaking on noisy shared runners.

Run directly::

    PYTHONPATH=src python -m repro.cli bench --quick
    PYTHONPATH=src python -m repro.cli bench --json BENCH_sim.json
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from .. import units
from ..analysis.harness import RunBudget
from ..analysis.sweep import log_rate_grid, sweep_rate_delay
from ..sim.engine import Simulator
from ..spec import (CCASpec, FlowSpec, ScenarioSpec,
                    parking_lot_topology, single_flow_scenario)

BENCH_SCHEMA_VERSION = 1

#: CCAs timed by the single-flow benchmark (a spread of CCA styles:
#: delay-target, model-based, loss-based, delay-threshold).
DEFAULT_CCAS = ("copa", "bbr", "reno", "vegas")

#: The headline single-flow configuration (matches the paper's Figure 3
#: mid-range operating point).
SINGLE_FLOW_RATE_MBPS = 48.0
SINGLE_FLOW_RM_MS = 50.0

#: Cold-sweep grid: 8 log-spaced points (the end-to-end sweep
#: workloads live in bench/, see bench/README.md).
SWEEP_GRID = log_rate_grid(0.5, 50.0, points=8)
SWEEP_RM = units.ms(40)


def _noop() -> None:
    return None


def bench_engine(total_events: int = 400_000,
                 timers: int = 32) -> Dict[str, Any]:
    """Raw event throughput: ``timers`` self-rescheduling no-op timers."""
    sim = Simulator()
    interval = 1e-3

    def make_tick() -> Any:
        def tick() -> None:
            sim.schedule(interval, tick)
        return tick

    for i in range(timers):
        sim.schedule_at(i * interval / timers, make_tick())
    horizon = (total_events / timers) * interval
    start = perf_counter()
    sim.run(horizon)
    wall = perf_counter() - start
    events = sim.events_processed
    return {"events": events, "wall_s": round(wall, 4),
            "events_per_s": round(events / wall, 1)}


def bench_engine_churn(ticks: int = 100_000) -> Dict[str, Any]:
    """Cancellation churn: each tick re-arms a far-future watchdog.

    This is the RTO pattern every sender runs per ACK; the heap fills
    with lazily-deleted entries, so the benchmark is dominated by how
    cheaply cancelled events are carried and discarded.
    """
    sim = Simulator()
    interval = 1e-3
    watchdog = [None]

    def tick() -> None:
        if watchdog[0] is not None:
            watchdog[0].cancel()
        watchdog[0] = sim.schedule(0.2, _noop)
        sim.schedule(interval, tick)

    sim.schedule_at(0.0, tick)
    start = perf_counter()
    sim.run(ticks * interval)
    wall = perf_counter() - start
    events = sim.events_processed
    return {"events": events, "wall_s": round(wall, 4),
            "events_per_s": round(events / wall, 1)}


def bench_single_flow(cca: str, duration: float = 60.0,
                      rate_mbps: float = SINGLE_FLOW_RATE_MBPS,
                      rm_ms: float = SINGLE_FLOW_RM_MS,
                      seed: int = 1) -> Dict[str, Any]:
    """One flow of ``cca`` for ``duration`` simulated seconds."""
    spec = single_flow_scenario(
        CCASpec(cca), rate=units.mbps(rate_mbps),
        rm=units.ms(rm_ms), seed=seed)
    start = perf_counter()
    result = spec.run(duration=duration, warmup=duration / 3)
    wall = perf_counter() - start
    sim = result.scenario.sim
    sender = result.scenario.flows[0].sender
    return {
        "duration_s": duration,
        "wall_s": round(wall, 4),
        "events": sim.events_processed,
        "events_per_s": round(sim.events_processed / wall, 1),
        "sent_packets": sender.sent_packets,
        "pkts_per_s": round(sender.sent_packets / wall, 1),
        "throughput_mbps": round(
            units.to_mbps(result.stats[0].throughput), 3),
    }


def bench_parking_lot(duration: float = 10.0,
                      rate_mbps: float = SINGLE_FLOW_RATE_MBPS,
                      rm_ms: float = SINGLE_FLOW_RM_MS,
                      seed: int = 1) -> Dict[str, Any]:
    """A two-bottleneck parking lot: long Copa flow vs. two cross flows.

    Times the multi-hop builder's wiring on the same per-packet hot
    path as ``single_flow`` — every long-flow packet traverses two
    queues, so this also tracks the per-hop overhead of the topology
    layer. The duration is *not* scaled down in quick mode: the
    three-flow slow-start transient costs a fixed ~40% of this
    workload's wall time, so shrinking the run would change the
    events-per-second rate itself, not just its variance, and the
    quick-vs-committed comparison would stop being apples-to-apples.
    """
    spec = ScenarioSpec(
        topology=parking_lot_topology(
            [units.mbps(rate_mbps), units.mbps(rate_mbps * 0.8)],
            buffer_bdp=4.0),
        flows=(
            FlowSpec(cca=CCASpec("copa"), rm=units.ms(rm_ms)),
            FlowSpec(cca=CCASpec("reno"), rm=units.ms(rm_ms),
                     path=("b0",)),
            FlowSpec(cca=CCASpec("cubic"), rm=units.ms(rm_ms),
                     path=("b1",)),
        ),
        seed=seed)
    start = perf_counter()
    result = spec.run(duration=duration, warmup=duration / 3)
    wall = perf_counter() - start
    sim = result.scenario.sim
    sent = sum(f.sender.sent_packets for f in result.scenario.flows)
    return {
        "duration_s": duration,
        "links": len(result.scenario.queues),
        "flows": len(result.scenario.flows),
        "wall_s": round(wall, 4),
        "events": sim.events_processed,
        "events_per_s": round(sim.events_processed / wall, 1),
        "sent_packets": sent,
        "pkts_per_s": round(sent / wall, 1),
    }


def bench_sweep(duration: float = 30.0,
                grid: Sequence[float] = SWEEP_GRID) -> Dict[str, Any]:
    """A cold serial Copa sweep over the 8-point log grid."""
    budget = RunBudget(max_events=50_000_000, wall_clock=600.0, retries=0)
    start = perf_counter()
    curve = sweep_rate_delay("copa", list(grid), SWEEP_RM,
                             duration=duration, budget=budget, seed=11)
    wall = perf_counter() - start
    if curve.failures:
        raise RuntimeError(f"sweep bench failed: {curve.failures}")
    sim_seconds = duration * len(grid)
    return {
        "points": len(grid),
        "duration_per_point_s": duration,
        "wall_s": round(wall, 4),
        "sim_s_per_wall_s": round(sim_seconds / wall, 2),
    }


def run_suite(quick: bool = False,
              ccas: Sequence[str] = DEFAULT_CCAS,
              include_sweep: bool = True) -> Dict[str, Any]:
    """Run the full suite and return the BENCH_sim document.

    ``quick`` shrinks every workload (~10x) so CI smoke jobs finish in
    seconds; the rate metrics (``events_per_s``, ``pkts_per_s``,
    ``sim_s_per_wall_s``) stay comparable to a full run within the
    regression tolerance.
    """
    scale = 0.1 if quick else 1.0
    suite: Dict[str, Any] = {
        "engine": bench_engine(total_events=int(400_000 * scale)),
        "engine_churn": bench_engine_churn(ticks=int(100_000 * scale)),
        "single_flow": {
            cca: bench_single_flow(cca, duration=max(60.0 * scale, 4.0))
            for cca in ccas
        },
        # Fixed workload in both modes (see bench_parking_lot).
        "topo_parking_lot": bench_parking_lot(),
    }
    if include_sweep:
        suite["sweep_8pt"] = bench_sweep(
            duration=max(30.0 * scale, 3.0))
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "cpu_count": os.cpu_count() or 1,
        "suite": suite,
    }


#: Rate metrics compared against the baseline (higher is better).
_RATE_KEYS = ("events_per_s", "pkts_per_s", "sim_s_per_wall_s")


def _flatten_rates(tree: Any, prefix: str = "") -> Dict[str, float]:
    rates: Dict[str, float] = {}
    if isinstance(tree, dict):
        for key, value in tree.items():
            path = f"{prefix}.{key}" if prefix else key
            if key in _RATE_KEYS and isinstance(value, (int, float)):
                rates[path] = float(value)
            else:
                rates.update(_flatten_rates(value, path))
    return rates


def compare_suites(current: Dict[str, Any], baseline: Dict[str, Any],
                   tolerance: float = 2.5) -> List[str]:
    """Regressions of ``current`` against ``baseline``, as messages.

    A metric regresses when it is more than ``tolerance`` times slower
    than the committed baseline. The tolerance is deliberately generous
    — shared CI runners are noisy and quick-mode workloads are short —
    so only catastrophic regressions (an accidentally quadratic loop, a
    reverted optimization) trip it.
    """
    if tolerance <= 1.0:
        raise ValueError(f"tolerance must be > 1, got {tolerance}")
    current_rates = _flatten_rates(current.get("suite", current))
    baseline_rates = _flatten_rates(baseline.get("suite", baseline))
    problems: List[str] = []
    for path, base_value in sorted(baseline_rates.items()):
        cur_value = current_rates.get(path)
        if cur_value is None or base_value <= 0:
            continue
        if cur_value < base_value / tolerance:
            problems.append(
                f"{path}: {cur_value:.1f} is {base_value / cur_value:.2f}x "
                f"slower than baseline {base_value:.1f} "
                f"(tolerance {tolerance}x)")
    return problems


def describe_suite(doc: Dict[str, Any]) -> str:
    """A compact human-readable table of one suite run."""
    suite = doc.get("suite", doc)
    lines = [f"{'benchmark':28s} {'wall_s':>9s} {'rate':>16s}"]
    for name in ("engine", "engine_churn"):
        entry = suite.get(name)
        if entry:
            lines.append(f"{name:28s} {entry['wall_s']:9.3f} "
                         f"{entry['events_per_s']:12.0f} ev/s")
    for cca, entry in sorted(suite.get("single_flow", {}).items()):
        lines.append(f"single_flow:{cca:16s} {entry['wall_s']:9.3f} "
                     f"{entry['pkts_per_s']:12.0f} pkt/s")
    lot = suite.get("topo_parking_lot")
    if lot:
        lines.append(f"{'topo_parking_lot':28s} {lot['wall_s']:9.3f} "
                     f"{lot['pkts_per_s']:12.0f} pkt/s")
    sweep = suite.get("sweep_8pt")
    if sweep:
        lines.append(f"{'sweep_8pt':28s} {sweep['wall_s']:9.3f} "
                     f"{sweep['sim_s_per_wall_s']:11.2f} sim-s/s")
    return "\n".join(lines)


def attach_baseline(doc: Dict[str, Any], baseline: Dict[str, Any],
                    headline: Optional[Dict[str, str]] = None
                    ) -> Dict[str, Any]:
    """Embed pre-optimization numbers and speedups into a suite doc."""
    doc = dict(doc)
    doc["baseline_pre_optimization"] = baseline.get("suite", baseline)
    current_rates = _flatten_rates(doc.get("suite", {}))
    baseline_rates = _flatten_rates(doc["baseline_pre_optimization"])
    speedups = {}
    for path, base_value in baseline_rates.items():
        cur = current_rates.get(path)
        if cur and base_value > 0:
            speedups[path] = round(cur / base_value, 3)
    doc["speedup_vs_baseline"] = dict(sorted(speedups.items()))
    if headline:
        doc["headline"] = headline
    return doc
