"""A/A check: does the benchmark agree with itself?

    python3 bench/aa.py [--runs 5] [--workload W]

Runs the untraced benchmark as two sets, A and B, of ``--runs`` runs of
this same checkout, alternating A1 B1 A2 B2 ..., every run with its own
seed, and prints per workload and end-to-end metric: each set's median
and quartiles, its spread (IQR / median), and how far apart the two
medians are. Two sets of the same code must differ by less than the
metric's bound, and a spread should stay below a third of it; the table
in README.md is this script's output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import DEFAULT_SEED, load_contract  # noqa: E402


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0",
         "--seconds", repr(seconds)],
        stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"aa: {workload} seed {seed} failed its checks")
    return {name: entry["value"]
            for name, entry in result["metrics"].items()}


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set (default 5)")
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--json", default=None,
                        help="also write every run's metrics here")
    args = parser.parse_args()

    workloads = [args.workload] if args.workload else names
    runs: Dict[str, Dict[str, List[Dict[str, float]]]] = {
        w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for label, offset in (("A", 0), ("B", 1000)):
            for workload in workloads:
                seed = DEFAULT_SEED + offset + i
                runs[workload][label].append(
                    one_run(workload, seed, args.seconds))
                print(f"aa: {label}{i + 1} {workload} done", flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)

    print(f"\nruns/set={args.runs} seconds={args.seconds:g} "
          f"cpus={sorted(os.sched_getaffinity(0))}")
    print("| workload | metric | A median [q1, q3] | A spread | "
          "B median [q1, q3] | B spread | (B-A)/A | bound |")
    print("|---|---|---|---|---|---|---|---|")
    worst = 0.0
    for workload in workloads:
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for label in ("A", "B"):
                values = [run[name] for run in runs[workload][label]]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                medians.append(q2)
                cells += [f"{q2:.4g} [{q1:.4g}, {q3:.4g}]",
                          f"{(q3 - q1) / q2:.2%}"]
            diff = (medians[1] - medians[0]) / medians[0]
            worst = max(worst, abs(diff) / bound)
            print(f"| {workload} | {name} | " + " | ".join(cells)
                  + f" | {diff:+.2%} | {bound:.0%} |")
    print(f"\nlargest |difference| / bound = {worst:.2f} "
          "(must stay below 1; above 0.5 the estimator needs work)")
    return 0 if worst < 1 else 1


if __name__ == "__main__":
    sys.exit(main())
