"""One fresh process that runs one workload and reports raw samples.

``run.py`` spawns this file; nothing here decides what a metric is. A
worker imports ``repro``, builds the workload's fixtures, runs one
checked pass (that much is *set-up*, measured from before the spawn),
and then, by ``--phase``:

* ``setup``   stops there;
* ``timed``   repeats the pass until ``--seconds`` are used up;
* ``traced``  runs a few plain passes, the same number with spans
              recorded, then the layer probes.

The last line of its stdout is one JSON document.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import layers  # noqa: E402
from calibrate import (OpClock, Sample, calibrate,  # noqa: E402
                       cpu_seconds, factor, p90, setup_spin)
from spans import Tracer  # noqa: E402
from workloads import Workload, make_workload  # noqa: E402

#: Fewest timed passes a run reports medians over.
MIN_PASSES = 3
#: Share of ``--seconds`` a traced run spends on plain passes, and again
#: on traced ones; the rest goes to toggles and probes.
TRACED_PASS_SHARE = 0.25


class Session:
    """Runs checked passes of one workload and keeps what they yield."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.clock: Optional[OpClock] = None
        self.tracer: Optional[Tracer] = None
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.passes = 0
        #: kind -> samples of the ops that passed their checks.
        self.samples: Dict[str, List[Sample]] = {
            kind: [] for kind in workload.kinds}
        #: Traced passes only: op id -> factor, kind -> counts.
        self.factors: Dict[int, float] = {}
        self.kind_counts: Dict[str, Dict[str, float]] = {
            kind: {} for kind in workload.kinds}

    def run_pass(self, checked: bool = True) -> float:
        """One pass, every op checked; returns its calibrated ms.

        Without a clock (the set-up pass) nothing is timed and 0 is
        returned. An op that raises or fails a check counts as failed
        and contributes no sample. ``checked=False`` is for a pass
        whose outputs are meant to differ (a coarser recorder).
        """
        workload, rep = self.workload, self.passes
        self.passes += 1
        total = 0.0
        workload.begin_pass(rep)
        try:
            for kind in workload.kinds:
                self.attempted += 1
                try:
                    sample, out = self._timed_op(kind, rep)
                    problems = (workload.verify(kind, rep, out)
                                if checked else [])
                except Exception as exc:  # an op that raises has failed
                    problems = [f"{kind}: {type(exc).__name__}: {exc}"]
                    sample = None
                if problems:
                    self.failed += 1
                    self.messages.extend(problems)
                elif sample is not None:
                    self.samples[kind].append(sample)
                    total += sample.cal
                # A built scenario is one big reference cycle. Free it
                # here, outside the timers, so neither the next op's
                # time nor peak RSS depends on when the collector runs.
                out = None
                gc.collect()
        finally:
            workload.end_pass(rep)
        return total

    def _timed_op(self, kind: str, rep: int) -> Any:
        workload, tracer = self.workload, self.tracer
        if self.clock is None:
            return None, workload.op(kind, rep)
        if tracer is None:
            return self.clock.measure(lambda: workload.op(kind, rep))

        def traced_op() -> Any:
            with tracer.op_span(workload.span.format(kind=kind)):
                return workload.op(kind, rep)

        before = dict(tracer.counts)
        sample, out = self.clock.measure(traced_op)
        self.factors[tracer.op] = sample.factor
        counts = self.kind_counts[kind]
        for name, value in tracer.counts.items():
            counts[name] = counts.get(name, 0) + value - before.get(name, 0)
        return sample, out

    def take_samples(self) -> Dict[str, List[Sample]]:
        taken = self.samples
        self.samples = {kind: [] for kind in self.workload.kinds}
        return taken


def sample_rows(samples: Dict[str, List[Sample]]) -> Dict[str, List[List]]:
    return {kind: [[s.wall, s.cal, s.cpu_cal] for s in rows]
            for kind, rows in samples.items()}


def median_pass(samples: Dict[str, List[Sample]], field: str) -> float:
    return sum(statistics.median(getattr(s, field) for s in rows)
               for rows in samples.values())


def timed_phase(session: Session, seconds: float,
                passes: Optional[int]) -> None:
    """Repeat the pass ``passes`` times or, without a count, until one
    more pass would overrun ``seconds``."""
    begin = time.perf_counter()
    done = 0
    while True:
        session.run_pass()
        done += 1
        elapsed = time.perf_counter() - begin
        if done >= (passes or MIN_PASSES) and (
                passes or elapsed + elapsed / done > seconds):
            return


def traced_phase(session: Session, seconds: float, passes: Optional[int],
                 trace_path: str) -> Dict[str, float]:
    """Plain passes, traced passes, toggles and probes; returns metrics."""
    workload = session.workload
    clock = session.clock = OpClock()
    begin = time.perf_counter()
    first = session.run_pass()
    session.take_samples()
    if passes is None:
        first_wall = time.perf_counter() - begin
        passes = max(2, int(TRACED_PASS_SHARE * seconds / first_wall))
    for _ in range(passes):
        session.run_pass()
    plain = session.take_samples()

    tracer = session.tracer = Tracer()
    layers.install(tracer)
    counted_before = dict(workload.counts)
    try:
        for _ in range(passes):
            session.run_pass()
        traced = session.take_samples()
        pass_ops = set(session.factors)
        counts = {name: value / passes
                  for name, value in tracer.counts.items()}
        counts.update(
            (name, (value - counted_before.get(name, 0)) / passes)
            for name, value in workload.counts.items())
        metrics = layers.span_metrics(tracer, session.factors, passes,
                                      counts, pass_ops)
        if workload.name == "cli_sweep":
            # The sweep's simulations happen in a child; its in-process
            # twin, traced once, stands in for what they count and cost.
            metrics.update(layers.cold_sweep_twin(
                tracer, clock, workload.seed, workload.workdir))
    finally:
        tracer.unwrap_all()
        session.tracer = None
    if any(len(rows) < passes for rows in (*plain.values(),
                                           *traced.values())):
        raise RuntimeError("a traced run needs every op to pass: "
                           + "; ".join(session.messages[:3]))

    plain_cal = median_pass(plain, "cal")
    kind_cal = {kind: median_pass({kind: rows}, "cal")
                for kind, rows in plain.items()}
    per_kind_counts = {
        kind: {name: value / passes for name, value in counts.items()}
        for kind, counts in session.kind_counts.items()}
    metrics.update(layers.kind_metrics(workload, kind_cal, per_kind_counts))
    metrics.update(layers.probes_for(workload, clock, session.run_pass,
                                     plain_cal))
    session.take_samples()
    layers.remove_probe_files(workload.workdir)

    traced_raw = median_pass(traced, "wall")
    self_ms = layers.layer_self_ms(tracer, passes, pass_ops)
    all_cal = [s.cal for rows in plain.values() for s in rows]
    metrics.update({
        "bench.pass_raw_ms": median_pass(plain, "wall"),
        "bench.op_p90_cal_ms": p90(all_cal),
        "bench.first_pass_cal_ms": first,
        "bench.trace_overhead_ratio":
            median_pass(traced, "cal") / plain_cal,
    })
    tracer.write(trace_path, {
        "workload": workload.name, "seed": workload.seed,
        "passes": passes, "pass_raw_ms": traced_raw,
        "layers_self_ms": self_ms,
        "layers_self_ms_sum": sum(self_ms.values()),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", required=True,
                        choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before the spawn")
    parser.add_argument("--spin0", type=float, required=True,
                        help="the runner's mean spin just before the spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-path", default=None)
    parser.add_argument("--inject", default=None,
                        choices=("corrupt-store",))
    args = parser.parse_args()

    os.makedirs(args.workdir)
    workload = make_workload(args.workload, args.seed, args.workdir)
    session = Session(workload)
    doc: Dict[str, Any] = {"workload": args.workload, "phase": args.phase}
    try:
        workload.setup()
        if args.phase == "traced":
            doc["layer"] = traced_phase(session, args.seconds, args.passes,
                                        args.trace_path)
        else:
            session.run_pass()
            # Set-up ends here: interpreter start, imports, fixtures and
            # one full checked pass, on the clock the runner started.
            wall = time.monotonic() - args.t0
            busy = cpu_seconds()
            doc["setup_cal_s"] = calibrate(
                wall, busy, factor(args.spin0,
                                   setup_spin())).cal / 1e3
            doc["setup_wall_s"] = wall
            if args.inject == "corrupt-store":
                workload.corrupt_store()
            if args.phase == "timed":
                session.clock = OpClock()
                timed_phase(session, args.seconds, args.passes)
                doc["samples"] = sample_rows(session.samples)
    finally:
        workload.close()
        shutil.rmtree(args.workdir, ignore_errors=True)
    who = (resource.RUSAGE_CHILDREN if workload.rss_from_children
           else resource.RUSAGE_SELF)
    doc.update({
        "attempted": session.attempted, "failed": session.failed,
        "messages": session.messages[:10], "passes": session.passes,
        "spins": session.clock.spins if session.clock else [],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "digests": workload.digests,
    })
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
