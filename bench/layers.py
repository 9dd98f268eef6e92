"""Per-layer measurements for the traced run.

Two sources, both driven from ``bench/`` through public entry points:

* *spans* — :func:`install` wraps the program's layer boundaries so the
  workload's own ops record where their time goes and what they count;
* *probes* — small fixed calls into one layer at a time (a bare
  ``Simulator``, one ``ResultStore``, ``python -c pass`` ...), each
  timed between spins like any op.

Every time is calibrated (see ``calibrate.py``). Metric names carry the
module they measure as prefix; ``bench/README.md`` lists which workload
each one is taken on and which end-to-end metric it should move.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Set

from calibrate import OpClock, p90
from spans import Tracer, layer_of
from workloads import (SWEEP_CCA, SWEEP_DURATION, SWEEP_GRID, SWEEP_RM_MS,
                       Workload, child_env)

Metrics = Dict[str, float]


def timed(clock: OpClock, call: Callable[[], Any], reps: int = 1,
          rounds: int = 3) -> float:
    """Median over ``rounds`` of the calibrated ms one ``call`` takes.

    ``reps`` calls share one pair of spins, for calls much shorter
    than a spin.
    """
    def block() -> None:
        for _ in range(reps):
            call()

    return statistics.median(
        clock.measure(block)[0].cal / reps for _ in range(rounds))


# ----------------------------------------------------------------------
# Spans: where the wrappers go
# ----------------------------------------------------------------------

def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the four workloads cross."""
    from repro.analysis import backends, harness, sweep
    from repro.service import client, jobs, queue, server
    from repro.sim import network, runner
    from repro.spec import scenario
    from repro.store import catalog, store

    def scenario_ran(_result: Any, built: Any, *_args: Any) -> None:
        tracer.count("sim.engine.events", built.sim.events_processed)
        for flow in built.flows:
            tracer.count("sim.host.sent_packets", flow.sender.sent_packets)
            tracer.count("sim.host.retransmits", flow.sender.retransmits)
            tracer.count("sim.host.timeouts", flow.sender.timeouts)
            tracer.count("sim.recorder.samples",
                         len(flow.recorder.sample_times))
        for link_queue in built.queues:
            tracer.count("sim.queue.drops", link_queue.drops)
        for recorder in built.queue_recorders:
            tracer.count("sim.recorder.samples",
                         len(recorder.sample_times))

    def fetched(result: Any, *_args: Any) -> None:
        tracer.count("store.hits" if result[0] else "store.misses")

    # sim: every module that bound build_topology by name gets the
    # wrapper (build_dumbbell reaches it through network's globals).
    for module in (network, runner, scenario):
        tracer.wrap(module, "build_topology", "sim.network.build")
    tracer.wrap(network.Scenario, "run", "sim.run", after=scenario_ran)
    tracer.wrap(runner, "summarize", "sim.runner.summarize")
    # spec
    tracer.wrap(scenario.ScenarioSpec, "run", "spec.run")
    tracer.wrap(scenario.ScenarioSpec, "from_json",
                "spec.scenario.from_json")
    # analysis
    tracer.wrap(sweep, "build_rate_delay_points",
                "analysis.sweep.build_points")
    tracer.wrap(backends, "execute_point",
                "analysis.backends.execute_point")
    tracer.wrap(harness.ResilientSweep, "run", "analysis.harness.run")
    # store
    for module in (backends, queue):
        tracer.wrap(module, "point_cache_key",
                    "store.keys.point_cache_key")
    tracer.wrap(store.ResultStore, "fetch", "store.fetch", after=fetched)
    tracer.wrap(store.ResultStore, "put", "store.put")
    tracer.wrap(catalog.Catalog, "record", "store.catalog.record")
    # service
    tracer.wrap(client.ServiceClient, "submit", "service.client.submit")
    tracer.wrap(client.ServiceClient, "wait", "service.client.wait")
    tracer.wrap(client.ServiceClient, "job", "service.client.poll")
    tracer.wrap(client.ServiceClient, "result_bytes",
                "service.client.result")
    for verb in ("do_GET", "do_POST"):
        tracer.wrap(server.ServiceRequestHandler, verb,
                    f"service.server.{verb}")
    tracer.wrap(queue.SweepService, "submit", "service.queue.submit")
    tracer.wrap(queue, "build_plan", "service.jobs.build_plan")
    tracer.wrap(queue, "render_result", "service.queue.render_result")
    tracer.wrap(jobs.JobSpec, "from_json", "service.jobs.from_json")
    for method in ("save", "append_event", "write_result"):
        tracer.wrap(jobs.JobStore, method, f"service.jobs.{method}")


def span_metrics(tracer: Tracer, factors: Dict[int, float],
                 passes: int, counts: Metrics, ops: Set[int]) -> Metrics:
    """Per-pass calibrated time under each span name, and what follows.

    Only spans of the ops in ``ops`` are summed. A span's calibrated
    time rescales the CPU seconds its own thread spent in it by its
    op's factor and keeps the rest (sleeps, waiting on another thread)
    as it was.
    """
    cal: Metrics = {}
    idle: Metrics = {}
    calls: Metrics = {}
    for span in tracer.spans:
        if span.op not in ops:
            continue
        waiting = max(0.0, span.wall - span.busy)
        total = waiting + span.busy * factors[span.op]
        cal[span.name] = cal.get(span.name, 0.0) + total * 1e3 / passes
        idle[span.name] = idle.get(span.name, 0.0) + waiting * 1e3 / passes
        calls[span.name] = calls.get(span.name, 0.0) + 1.0 / passes

    metrics = dict(counts)
    for name, source in (
            ("sim.run_cal_ms", "sim.run"),
            ("sim.runner.summarize_cal_ms", "sim.runner.summarize"),
            ("service.client.submit_cal_ms", "service.client.submit"),
            ("service.client.wait_cal_ms", "service.client.wait"),
            ("service.client.result_cal_ms", "service.client.result")):
        if source in cal:
            metrics[name] = cal[source]
    if "service.client.wait" in cal:
        metrics["service.client.wait_idle_ms"] = idle["service.client.wait"]
        metrics["service.client.wait_polls"] = calls["service.client.poll"]
    events = counts.get("sim.engine.events", 0.0)
    packets = counts.get("sim.host.sent_packets", 0.0)
    if events:
        metrics["sim.run_cal_us_per_event"] = \
            metrics["sim.run_cal_ms"] * 1e3 / events
    if packets:
        metrics["sim.run_cal_us_per_packet"] = \
            metrics["sim.run_cal_ms"] * 1e3 / packets
    return metrics


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------

def engine_probes(clock: OpClock) -> Metrics:
    """Bare ``Simulator``: the ``repro bench`` engine and churn shapes."""
    from repro.sim.engine import Simulator

    def noop_timers(total_events: int = 100_000,
                    timers: int = 32) -> Callable[[], Any]:
        sim, interval = Simulator(), 1e-3

        def make_tick() -> Callable[[], None]:
            def tick() -> None:
                sim.schedule(interval, tick)
            return tick

        for i in range(timers):
            sim.schedule_at(i * interval / timers, make_tick())
        horizon = (total_events / timers) * interval
        return lambda: (sim.run(horizon), sim)[1]

    def watchdog_churn(ticks: int = 40_000) -> Callable[[], Any]:
        sim, interval = Simulator(), 1e-3
        watchdog: List[Any] = [None]

        def tick() -> None:
            if watchdog[0] is not None:
                watchdog[0].cancel()
            watchdog[0] = sim.schedule(0.2, lambda: None)
            sim.schedule(interval, tick)

        sim.schedule_at(0.0, tick)
        return lambda: (sim.run(ticks * interval), sim)[1]

    metrics = {}
    for name, make in (("noop", noop_timers), ("churn", watchdog_churn)):
        per_event = []
        for _ in range(3):
            sample, sim = clock.measure(make())
            per_event.append(sample.cal * 1e3 / sim.events_processed)
        metrics[f"sim.engine.{name}_cal_us_per_event"] = \
            statistics.median(per_event)
    return metrics


@contextmanager
def coarse_recorder(scale: float = 10.0) -> Iterator[None]:
    """Build every scenario with a ``scale`` times coarser recorder."""
    from repro.sim import network, runner
    original = network.build_topology

    def build(links: Any, flows: Any, sample_interval: float = 0.05,
              **kwargs: Any) -> Any:
        return original(links, flows,
                        sample_interval=sample_interval * scale, **kwargs)

    network.build_topology = runner.build_topology = build
    try:
        yield
    finally:
        network.build_topology = runner.build_topology = original


def toggle_probes(run_pass: Callable[..., float],
                  default_cal_ms: float) -> Metrics:
    """Two layers switched on the workload's own fixed pass.

    ``run_pass`` runs one pass and returns its calibrated ms;
    ``default_cal_ms`` is the untraced pass (sentinel in its default
    mode, recorder at its default interval). The strict and off passes
    must repeat the usual outputs; the coarse one cannot.
    """
    from repro.sim.invariants import override_mode
    with override_mode("strict"):
        strict = run_pass()
    with override_mode("off"):
        off = run_pass()
    with coarse_recorder():
        coarse = run_pass(checked=False)
    return {"sim.invariants.strict_delta_cal_ms": strict - off,
            "sim.recorder.coarse_delta_cal_ms": default_cal_ms - coarse}


def spec_probes(clock: OpClock, spec: Any) -> Metrics:
    from repro.spec import ScenarioSpec
    document = spec.to_json()
    return {
        "spec.build_cal_ms": timed(clock, spec.build, reps=20),
        "spec.scenario.to_json_cal_us":
            timed(clock, spec.to_json, reps=300) * 1e3,
        "spec.scenario.from_json_cal_us":
            timed(clock, lambda: ScenarioSpec.from_json(document),
                  reps=300) * 1e3,
    }


def store_probes(clock: OpClock, workdir: str) -> Metrics:
    """One fresh ``ResultStore``: key, put, fetch, catalog append."""
    from repro.analysis.sweep import (build_rate_delay_points,
                                      run_rate_delay_point)
    from repro.store import ResultStore, cache_key, point_cache_key
    store = ResultStore(os.path.join(workdir, "probe-store"))
    _, points = build_rate_delay_points(SWEEP_CCA, SWEEP_GRID[:1],
                                        SWEEP_RM_MS / 1e3,
                                        duration=SWEEP_DURATION)
    params = points[0][1]
    result = {"link_rate": 62500.0, "d_min": 0.04012, "d_max": 0.05231,
              "throughput": 61234.5}
    keys = [cache_key("bench.probe", {"i": i}) for i in range(600)]
    fresh, stored = iter(keys), iter(keys)
    absent = cache_key("bench.probe", {"i": -1})
    metrics = {
        "store.keys.point_cache_key_cal_us": timed(
            clock, lambda: point_cache_key(run_rate_delay_point, params),
            reps=300) * 1e3,
        "store.put_cal_us": timed(
            clock, lambda: store.put(next(fresh), result,
                                     meta={"point": "probe"}),
            reps=200) * 1e3,
        "store.fetch_hit_cal_us": timed(
            clock, lambda: store.fetch(next(stored)), reps=200) * 1e3,
        "store.fetch_miss_cal_us": timed(
            clock, lambda: store.fetch(absent), reps=200) * 1e3,
        "store.catalog.record_cal_us": timed(
            clock, lambda: store.catalog.record(absent, "hit"),
            reps=200) * 1e3,
    }
    stats = store.stats()
    metrics["store.bytes_per_entry"] = stats.total_bytes / stats.entries
    return metrics


def sweep_probes(clock: OpClock, seed: int, workdir: str) -> Metrics:
    """``sweep_rate_delay`` in-process: no store, empty store, full."""
    from repro.analysis.harness import RunBudget
    from repro.analysis.sweep import (build_rate_delay_points,
                                      run_rate_delay_point,
                                      sweep_rate_delay)
    rm = SWEEP_RM_MS / 1e3
    budget = RunBudget()
    fresh_dirs = iter(os.path.join(workdir, f"probe-sweep-{i}")
                      for i in range(100))

    def sweep(**kwargs: Any) -> Any:
        curve = sweep_rate_delay(SWEEP_CCA, SWEEP_GRID, rm,
                                 duration=SWEEP_DURATION, seed=seed,
                                 **kwargs)
        if curve.failures:
            raise RuntimeError(f"probe sweep failed: {curve.failures}")
        return curve

    def cold(checkpoint: bool = False) -> None:
        root = next(fresh_dirs)
        sweep(cache_dir=os.path.join(root, "cache"), **(
            {"checkpoint_path": os.path.join(root, "ck.json")}
            if checkpoint else {}))

    _, points = build_rate_delay_points(SWEEP_CCA, SWEEP_GRID, rm,
                                        duration=SWEEP_DURATION, seed=seed)
    warm_dir = os.path.join(workdir, "probe-sweep-warm")
    sweep(cache_dir=warm_dir)
    nostore = timed(clock, sweep)
    direct = timed(clock, lambda: [run_rate_delay_point(params, budget)
                                   for _, params in points])
    cold_ms = timed(clock, cold)
    checkpointed = timed(clock, lambda: cold(checkpoint=True))
    return {
        "analysis.sweep.build_points_cal_ms": timed(
            clock, lambda: build_rate_delay_points(
                SWEEP_CCA, SWEEP_GRID, rm, duration=SWEEP_DURATION,
                seed=seed), reps=20),
        "analysis.sweep.nostore_inproc_cal_ms": nostore,
        "analysis.sweep.cold_inproc_cal_ms": cold_ms,
        "analysis.sweep.warm_inproc_cal_ms": timed(
            clock, lambda: sweep(cache_dir=warm_dir), reps=5),
        "analysis.backends.point_overhead_cal_ms":
            (nostore - direct) / len(points),
        "analysis.harness.checkpoint_delta_cal_ms": checkpointed - cold_ms,
    }


def cold_sweep_twin(tracer: Tracer, clock: OpClock, seed: int,
                    workdir: str) -> Metrics:
    """One traced in-process cold sweep: the CLI child's simulations.

    Returns the ``sim`` counts and times of the eight points the
    ``cold`` kind simulates out of sight in its subprocess.
    """
    from repro.analysis.sweep import sweep_rate_delay
    before = dict(tracer.counts)

    def twin() -> None:
        with tracer.op_span("analysis.sweep.cold_inproc"):
            sweep_rate_delay(
                SWEEP_CCA, SWEEP_GRID, SWEEP_RM_MS / 1e3,
                duration=SWEEP_DURATION, seed=seed,
                cache_dir=os.path.join(workdir, "probe-twin"))

    sample, _ = clock.measure(twin)
    counts = {name: value - before.get(name, 0)
              for name, value in tracer.counts.items()
              if name.startswith("sim.")}
    metrics = span_metrics(tracer, {tracer.op: sample.factor}, 1, counts,
                           {tracer.op})
    return {name: value for name, value in metrics.items()
            if name.startswith("sim.")}


def cli_probes(clock: OpClock) -> Metrics:
    """Interpreter start, ``import repro.cli``, ``repro --help``."""
    def python(*argv: str) -> Callable[[], None]:
        def call() -> None:
            subprocess.run([sys.executable, *argv], env=child_env(),
                           check=True, capture_output=True)
        return call

    start = timed(clock, python("-c", "pass"), rounds=5)
    imported = timed(clock, python("-c", "import repro.cli"), rounds=5)
    return {
        "cli.python_start_cal_ms": start,
        "cli.import_cal_ms": imported - start,
        "cli.help_cal_ms": timed(
            clock, python("-m", "repro.cli", "--help"), rounds=5),
    }


def service_probes(clock: OpClock, workload: Any) -> Metrics:
    """The daemon's pieces one at a time, beside the whole round trip."""
    from repro.service import JobSpec, SweepService, build_plan
    from repro.service.jobs import TERMINAL
    client = workload.client

    def healthz() -> None:
        if not client.healthz():
            raise RuntimeError("daemon is unhealthy")

    round_trips: List[float] = []

    def timed_round_trips() -> None:
        for _ in range(60):
            begin = time.perf_counter()
            healthz()
            round_trips.append(time.perf_counter() - begin)

    rtt_sample, _ = clock.measure(timed_round_trips)

    # The same queue with no HTTP in front: submit, then watch the job.
    direct = SweepService(os.path.join(workload.workdir, "probe-jobs"),
                          workload.store)
    direct.start()

    def direct_round_trip() -> None:
        workload.begin_pass(-1)
        job = direct.submit(workload.spec)
        while direct.get(job.id).state not in TERMINAL:
            time.sleep(0.0005)
        if direct.result_bytes(job.id) is None:
            raise RuntimeError(f"direct job {job.id} left no result")

    try:
        direct_ms = timed(clock, direct_round_trip, reps=5)
    finally:
        direct.stop()
    document = workload.spec.to_json()
    return {
        "service.client.healthz_cal_ms": timed(clock, healthz, reps=20),
        "service.client.rtt_p90_cal_ms":
            p90(round_trips) * 1e3 * rtt_sample.factor,
        "service.queue.direct_cal_ms": direct_ms,
        "service.jobs.from_json_cal_us": timed(
            clock, lambda: JobSpec.from_json(document), reps=300) * 1e3,
        "service.jobs.build_plan_cal_us": timed(
            clock, lambda: build_plan(workload.spec), reps=50) * 1e3,
        "service.jobs_dir_entries": float(len(os.listdir(
            workload.service.job_store.root))),
    }


def probes_for(workload: Workload, clock: OpClock,
               run_pass: Callable[..., float],
               default_cal_ms: float) -> Metrics:
    """The probes taken on this workload's traced run."""
    metrics: Metrics = {}
    name = workload.name
    if name in ("starve_pairs", "parking_lot"):
        metrics.update(engine_probes(clock))
        metrics.update(toggle_probes(run_pass, default_cal_ms))
    if name == "parking_lot":
        metrics.update(spec_probes(clock, workload.scenarios["lot2"]))
    if name == "cli_sweep":
        from repro.spec import CCASpec, single_flow_scenario
        metrics.update(cli_probes(clock))
        metrics.update(sweep_probes(clock, workload.seed, workload.workdir))
        metrics.update(spec_probes(clock, single_flow_scenario(
            CCASpec(SWEEP_CCA), rate=SWEEP_GRID[-1] * 125e3,
            rm=SWEEP_RM_MS / 1e3)))
    if name in ("cli_sweep", "service_warm"):
        metrics.update(store_probes(clock, workload.workdir))
    if name == "service_warm":
        metrics.update(service_probes(clock, workload))
    return metrics


def remove_probe_files(workdir: str) -> None:
    for entry in os.listdir(workdir):
        if entry.startswith("probe-"):
            shutil.rmtree(os.path.join(workdir, entry), ignore_errors=True)


def kind_metrics(workload: Workload, kind_cal_ms: Dict[str, float],
                 counts_by_kind: Dict[str, Metrics]) -> Metrics:
    """The per-kind medians under the names the issue fixed."""
    metrics: Metrics = {}
    for kind, cal_ms in kind_cal_ms.items():
        stem = workload.span.format(kind=kind)
        if workload.name == "parking_lot":
            events = counts_by_kind[kind]["sim.engine.events"]
            metrics[f"{stem}_cal_us_per_event"] = cal_ms * 1e3 / events
        else:
            metrics[f"{stem}_cal_ms"] = cal_ms
    if workload.name == "parking_lot":
        metrics["sim.network.hop_overhead_ratio"] = (
            metrics["sim.network.lot2_cal_us_per_event"]
            / metrics["sim.network.dumbbell3_cal_us_per_event"])
    return metrics


def layer_self_ms(tracer: Tracer, passes: int, ops: Set[int]) -> Metrics:
    """Per-pass self time by layer (raw wall ms, not calibrated)."""
    layers: Metrics = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span.op not in ops:
            continue
        layer = layer_of(span.name)
        layers[layer] = layers.get(layer, 0.0) + self_s * 1e3 / passes
    return layers
