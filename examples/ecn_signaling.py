#!/usr/bin/env python3
"""Section 6.4 demo: explicit signaling sidesteps the ambiguity trap.

The paper's core diagnosis is that delay and loss are *ambiguous*
congestion signals — non-congestive jitter and random loss mimic them,
and Theorem 1 turns that ambiguity into starvation. ECN marks set by
the bottleneck's AQM are unambiguous, so the paper conjectures that
"such AQM mechanisms, coupled with CCAs that ignore small amounts of
loss, can prevent starvation".

This demo pits the same adversary (2% random loss on one of two flows)
against:

  1. PCC Allegro — interprets the loss as congestion; the lossy flow
     spirals down (the Section 5.4 starvation);
  2. EcnAimd — ignores the loss, reacts only to the shared queue's ECN
     marks; the flows stay fair.

Run:  python examples/ecn_signaling.py
"""

from repro import units
from repro.analysis.report import describe_run
from repro.analysis.starvation import allegro_asymmetric_loss
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                        ScenarioSpec)

RM = units.ms(40)
RATE = units.mbps(120)


def ecn_scenario():
    return ScenarioSpec(
        link=LinkSpec(rate=RATE, buffer_bdp=4.0,
                      ecn_threshold_bytes=0.5 * RATE * RM),
        flows=(FlowSpec(cca=CCASpec("ecn-aimd"), rm=RM,
                        label="lossy (2%)",
                        data_elements=(ElementSpec(
                            "random_loss",
                            {"loss_prob": 0.02, "seed": 9}),)),
               FlowSpec(cca=CCASpec("ecn-aimd"), rm=RM, label="clean")),
    ).run(duration=60.0, warmup=25.0)


def main():
    print("Adversary: 2% random (non-congestive) loss on one of two "
          "flows.\n")

    allegro = allegro_asymmetric_loss(loss1=0.02, loss2=0.0,
                                      duration=90.0, warmup=45.0)
    print(describe_run(
        "PCC Allegro (loss as congestion signal)", allegro,
        paper_numbers="10.3 vs 99.1 Mbit/s (Section 5.4)"))
    print()

    ecn = ecn_scenario()
    print(describe_run(
        "EcnAimd (queue-threshold ECN as congestion signal)", ecn,
        paper_numbers="Section 6.4 conjecture: no starvation"))
    print()

    marks = ecn.scenario.queue.ecn_marks
    print(f"Summary: Allegro ratio {allegro.throughput_ratio():.1f} vs "
          f"EcnAimd ratio {ecn.throughput_ratio():.1f} "
          f"({marks} ECN marks set by the AQM).")


if __name__ == "__main__":
    main()
