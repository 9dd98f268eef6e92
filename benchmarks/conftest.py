"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints a paper-vs-measured comparison. Absolute numbers differ (our
substrate is a simulator, not the authors' Mahimahi testbed); the
assertions check the *shape*: who wins, by roughly what factor, where
the crossovers fall.

Heavy experiments run exactly once per session via
``benchmark.pedantic(..., rounds=1, iterations=1)``.
"""

from __future__ import annotations

import math
import sys

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)


def report(title: str, lines) -> None:
    """Print a comparison block that survives pytest capture (-s not
    required: bench output is shown because we write to stdout and
    pytest-benchmark prints its table anyway; use -rA to see ours)."""
    print()
    print(f"=== {title} ===")
    for line in lines:
        print(line)
    sys.stdout.flush()


def definition2(verdict) -> str:
    """One report line for a run's Definition 2 verdict
    (:meth:`repro.sim.runner.RunResult.fairness`)."""
    def at(t):
        return "-" if math.isnan(t) else f"{t:.2f} s"

    return (f"Definition 2 at s = {verdict.s:g}: "
            f"violated_from {at(verdict.violated_from)}, "
            f"satisfied_from {at(verdict.satisfied_from)} "
            f"(final ratio {verdict.final_ratio:.2f})")


@pytest.fixture
def once(benchmark):
    def runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return runner
