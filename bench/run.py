"""The benchmark's one command.

    python3 bench/run.py [--workload W] [--seed S] [--seconds T]
                         [--trace 0|1] [--smoke]

With no ``--workload`` all four run; with no ``--trace`` each runs
untraced (end-to-end metrics) and then traced (per-layer metrics).
Every metric named in ``BENCHMARK.json`` is printed with its unit and
the sample counts behind it; the last line of each run is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 1 if any op failed a check.

This process never imports ``repro``: it spins, spawns workers
(``worker.py``) and turns their raw samples into metrics. How a time is
taken is in ``calibrate.py``; why these workloads, in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import p90, setup_spin, steadiness  # noqa: E402

#: The seed a run uses when none is given.
DEFAULT_SEED = 20220822
#: Set-up is timed on fresh workers: set-up-only ones until this many
#: seconds are used (at least SETUP_MIN, at most SETUP_MAX of them), then
#: the one that goes on to run the timed phase. A cheap set-up gets more
#: samples for the same time.
SETUP_BUDGET_S = 6.0
SETUP_MIN = 2
SETUP_MAX = 6
SMOKE_PASSES = 2
OUT = os.path.join(HERE, "out")


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn_worker(workload: str, seed: int, phase: str, seconds: float,
                 passes: Optional[int], inject: Optional[str]
                 ) -> Dict[str, Any]:
    """Run one worker to its end and return the document it printed."""
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    tag = f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--phase", phase, "--seconds", repr(seconds),
            "--workdir", os.path.join(OUT, "tmp", tag),
            "--trace-path", os.path.join(OUT, f"trace-{workload}.json")]
    if passes is not None:
        argv += ["--passes", str(passes)]
    if inject:
        argv += ["--inject", inject]
    argv += ["--spin0", repr(setup_spin()),
             "--t0", repr(time.monotonic())]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: {phase} worker for {workload} exited "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def kind_medians(samples: Dict[str, List[List[float]]], column: int
                 ) -> Dict[str, float]:
    return {kind: statistics.median(row[column] for row in rows)
            for kind, rows in samples.items()}


class Report:
    """Prints metrics against the contract and keeps the JSON result."""

    def __init__(self, workload: str, declared: List[Dict[str, Any]]
                 ) -> None:
        self.workload = workload
        self.units = {m["name"]: m["unit"] for m in declared}
        self.metrics: Dict[str, Dict[str, Any]] = {}

    def add(self, name: str, value: float, note: str = "") -> None:
        unit = self.units[name]
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"{self.workload:13s} {name:42s} {value:16.6f} {unit:6s}"
              f" {note}".rstrip())

    def finish(self, attempted: int, failed: int,
               messages: List[str]) -> int:
        """Zero-fill what this run did not measure, print the result."""
        for name in self.units:
            if name not in self.metrics:
                self.add(name, 0.0, "(not taken on this workload)")
        for message in messages:
            print(f"{self.workload:13s} FAILED {message}")
        print(f"{self.workload:13s} fail_ratio = {failed}/{attempted}"
              f" = {failed / attempted:.6f}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": self.metrics}))
        return failed


def host_lines(report_name: str, spins: List[float]) -> Dict[str, float]:
    p50, ratio, unsteady = steadiness(spins)
    if unsteady:
        print(f"{report_name:13s} UNSTEADY host: spin IQR is "
              f"{ratio:.0%} of its median; numbers follow regardless")
    return {"bench.spin_p50_ms": p50, "bench.spin_iqr_ratio": ratio,
            "bench.unsteady": float(unsteady)}


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool,
                 inject: Optional[str], contract: Dict[str, Any]) -> int:
    """Set-up workers, then the timed one; the end-to-end metrics."""
    passes = SMOKE_PASSES if smoke else None
    docs: List[Dict[str, Any]] = []
    begin = time.monotonic()
    while not smoke and len(docs) < SETUP_MAX:
        spent = time.monotonic() - begin
        if len(docs) >= SETUP_MIN \
                and spent + spent / len(docs) > SETUP_BUDGET_S:
            break
        docs.append(spawn_worker(workload, seed, "setup", seconds, passes,
                                 None))
    timed = spawn_worker(workload, seed, "timed", seconds, passes, inject)
    docs.append(timed)
    samples = timed["samples"]
    report = Report(workload, contract["end_to_end"])
    attempted = sum(doc["attempted"] for doc in docs)
    failed = sum(doc["failed"] for doc in docs)
    messages = [m for doc in docs for m in doc["messages"]]
    if not all(samples.values()):
        for message in messages:
            print(f"{workload:13s} FAILED {message}")
        raise SystemExit(f"bench: {workload}: a kind has no passing op")

    reps = {kind: len(rows) for kind, rows in samples.items()}
    note = f"[passes={timed['passes'] - 1} reps/kind={min(reps.values())}]"
    cal, cpu = kind_medians(samples, 1), kind_medians(samples, 2)
    for kind in samples:
        print(f"{workload:13s}   kind {kind:10s} cal p50 {cal[kind]:10.3f}"
              f" ms  cpu p50 {cpu[kind]:10.3f} ms  n={reps[kind]}"
              f"  digest {timed['digests'].get(kind)}")
    report.add("pass_cal_ms", sum(cal.values()), note)
    report.add("cpu_cal_ms", sum(cpu.values()), note)
    report.add("peak_rss_mb", timed["peak_rss_mb"])
    setups = [doc["setup_cal_s"] for doc in docs]
    report.add("setup_s", statistics.median(setups),
               f"[fresh workers={len(setups)}]")
    all_cal = [row[1] for rows in samples.values() for row in rows]
    diagnostics = host_lines(workload, timed["spins"])
    diagnostics["bench.pass_raw_ms"] = sum(
        kind_medians(samples, 0).values())
    diagnostics["bench.op_p90_cal_ms"] = p90(all_cal)
    for name, value in diagnostics.items():
        print(f"{workload:13s}   {name:40s} {value:16.6f}")
    return report.finish(attempted, failed, messages)


def run_traced(workload: str, seed: int, seconds: float, smoke: bool,
               contract: Dict[str, Any]) -> int:
    """One traced worker; the per-layer metrics."""
    # A smoke run's two passes: one plain, one traced.
    passes = SMOKE_PASSES // 2 if smoke else None
    doc = spawn_worker(workload, seed, "traced", seconds, passes, None)
    report = Report(workload, contract["per_layer"])
    layer = dict(doc["layer"])
    layer.update(host_lines(workload, doc["spins"]))
    if workload == "cli_sweep":
        layer["cli.sweep_warm_overhead_cal_ms"] = (
            layer["cli.sweep_warm_cal_ms"]
            - layer["cli.python_start_cal_ms"] - layer["cli.import_cal_ms"]
            - layer["analysis.sweep.warm_inproc_cal_ms"])
    for name in report.units:
        if name in layer:
            report.add(name, layer.pop(name))
    if layer:
        raise SystemExit(f"bench: metrics missing from BENCHMARK.json: "
                         f"{sorted(layer)}")
    return report.finish(doc["attempted"], doc["failed"], doc["messages"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        nargs="?", const=1,
                        help="1 = traced run only, 0 = untraced only "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_PASSES} passes per workload and one "
                             "set-up: a check, not a measurement")
    parser.add_argument("--inject", default=None,
                        choices=("corrupt-store",),
                        help="self-test: damage service_warm's store "
                             "after set-up; the run must then fail")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("bench: no src/repro beside bench/: nothing to measure",
              file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = (args.seconds if args.seconds is not None
               else float(contract["run_seconds"]))

    failed = 0
    for workload in ([args.workload] if args.workload else names):
        if args.trace in (None, 0):
            failed += run_untraced(workload, args.seed, seconds,
                                   args.smoke, args.inject, contract)
        if args.trace in (None, 1):
            failed += run_traced(workload, args.seed, seconds, args.smoke,
                                 contract)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
