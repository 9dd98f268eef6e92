#!/usr/bin/env python3
"""Parking-lot competition: BBR vs Cubic across two shared bottlenecks.

The paper's starvation theorem is proved on one bottleneck; real
starvation reports are usually about *partially shared* paths. This
demo builds the classic parking lot — two bottlenecks in series — and
runs a long BBR flow over both hops against single-hop Cubic cross
traffic at each hop:

    n0 ──b0 (20 Mbit/s)──► n1 ──b1 (16 Mbit/s)──► n2
         ▲  ▲                    ▲
         │  └ cubic#b0 (b0 only) └ cubic#b1 (b1 only)
         └ bbr-long (b0 then b1)

The long flow pays the parking-lot tax (it must win at *both* queues)
while each Cubic flow only contends at one; the per-pair throughput
ratio shows how far from proportional fairness the outcome lands. A
second panel compiles the same topology into a competition matrix
(the plan ``repro matrix --topology`` runs) to put numbers on every
pairing at once.

Run:  python examples/parking_lot_competition.py
"""

from repro import units
from repro.analysis.competition import compile_matrix_plan
from repro.analysis.plan import run_plan
from repro.analysis.report import describe_run
from repro.spec import (CCASpec, FlowSpec, ScenarioSpec,
                        parking_lot_topology)

RM_MS = 40.0
RM = units.ms(RM_MS)
DURATION = 30.0
TOPOLOGY = parking_lot_topology(
    [units.mbps(20), units.mbps(16)], buffer_bdp=4.0)


def long_vs_cross_traffic():
    """One long BBR flow over both hops, Cubic cross traffic per hop."""
    spec = ScenarioSpec(
        topology=TOPOLOGY,
        flows=(
            FlowSpec(cca=CCASpec("bbr"), rm=RM, label="bbr-long"),
            FlowSpec(cca=CCASpec("cubic"), rm=RM, label="cubic#b0",
                     path=("b0",)),
            FlowSpec(cca=CCASpec("cubic"), rm=RM, label="cubic#b1",
                     path=("b1",)),
        ),
        seed=1)
    return spec.run(duration=DURATION, warmup=DURATION / 3,
                    max_events=50_000_000, wall_clock_budget=120.0)


def pairwise_matrix():
    """Every BBR/Cubic pairing as long flows over the same lot."""
    _, matrix = run_plan(compile_matrix_plan(
        ["bbr", "cubic"], rate_mbps=20.0, rm_ms=RM_MS,
        duration=DURATION, seed=1, topology=TOPOLOGY.to_json()))
    return matrix


def main():
    result = long_vs_cross_traffic()
    print(describe_run(
        "=== long BBR flow vs per-hop Cubic cross traffic ===", result))
    for link_id, queue in zip(result.scenario.link_ids,
                              result.scenario.queues):
        print(f"  {link_id}: {queue.forwarded} forwarded, "
              f"{queue.drops} dropped")
    print()
    print("=== pairwise competition over the same parking lot ===")
    print(pairwise_matrix().describe())


if __name__ == "__main__":
    main()
