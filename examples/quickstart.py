#!/usr/bin/env python3
"""Quickstart: two Vegas flows on a clean path vs a jittery path.

Demonstrates the library's core loop in ~40 lines:

1. describe a dumbbell scenario with the declarative :mod:`repro.spec`
   layer (pure data, JSON-serializable, what the CLI's ``--spec`` files
   contain),
2. run it in the packet-level simulator,
3. read per-flow statistics.

The punchline mirrors the paper's motivation: on the clean path the two
delay-convergent flows share nicely; when one flow's min-RTT estimate is
poisoned by a single 1-ms-fast packet, the shares collapse.

Run:  python examples/quickstart.py
"""

from repro import units
from repro.analysis.report import describe_run
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                        ScenarioSpec)

RM = units.ms(40)
JITTER = units.ms(10)


def clean_path():
    return ScenarioSpec(
        link=LinkSpec(rate=units.mbps(48)),
        flows=(FlowSpec(cca=CCASpec("vegas"), rm=RM, label="flow-a"),
               FlowSpec(cca=CCASpec("vegas"), rm=RM, label="flow-b")),
    ).run(duration=30.0, warmup=10.0)


def jittery_path():
    # A scenario is pure data: `spec.dumps()` gives a JSON file
    # `repro run --spec` replays; one root seed derives every component
    # RNG, so it reproduces bit-for-bit anywhere.
    spec = ScenarioSpec(
        link=LinkSpec(rate=units.mbps(48)),
        flows=(
            FlowSpec(
                cca=CCASpec("vegas"), rm=RM, label="poisoned",
                # Every ACK is delayed 10 ms except the very first
                # packet's, so this flow believes the path has 10 ms of
                # queueing.
                ack_elements=(ElementSpec(
                    "exempt_first_jitter",
                    {"eta": JITTER, "exempt_seqs": [0]}),)),
            FlowSpec(
                cca=CCASpec("vegas"), rm=RM, label="normal",
                ack_elements=(ElementSpec("constant_jitter",
                                          {"eta": JITTER}),)),
        ),
        seed=0)
    return spec.run(duration=30.0, warmup=10.0)


def main():
    print(describe_run("Two Vegas flows, clean path", clean_path()))
    print()
    print(describe_run(
        "Two Vegas flows, one with a poisoned min-RTT (Section 5.1)",
        jittery_path(),
        paper_numbers="a 1 ms measurement error is enough to starve"))


if __name__ == "__main__":
    main()
