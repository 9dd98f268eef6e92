#!/usr/bin/env python3
"""Fault-injection starvation: two BBR flows, one behind a flaky link.

The paper shows starvation emerging from *non-congestive delay*
variation. This demo shows the sibling phenomenon under non-congestive
*loss and outages*: two identical BBR flows share a 48 Mbit/s
bottleneck, but one of them crosses a segment that blacks out for half
a second every few seconds (a handover gap / flapping radio). The
victim's bandwidth samples collapse during every outage, its model of
the path deflates, and the healthy flow absorbs the freed capacity —
the victim ends far below its fair share even though the bottleneck
itself never discriminates between them.

A second panel repeats the experiment with bursty Gilbert-Elliott loss
at just 2% mean — same story, no scheduled outages needed.

Run:  python examples/fault_injection_starvation.py
"""

from repro import units
from repro.analysis.report import describe_run
from repro.ccas import BBR
from repro.sim import (FaultSchedule, FlowConfig, LinkConfig,
                       dumbbell_links, run)

LINK = LinkConfig(rate=units.mbps(48), buffer_bdp=4.0)
RM = units.ms(40)
DURATION = 45.0


def scheduled_blackouts():
    """0.5 s outage every 5 s, only on the victim's path."""
    faults = FaultSchedule(seed=1)
    for k in range(1, int(DURATION / 5)):
        faults.blackout(5.0 * k, 5.0 * k + 0.5)
    return run(
        dumbbell_links(LINK),
        [FlowConfig(cca_factory=lambda: BBR(seed=1), rm=RM,
                    label="victim (blackouts)", fault_schedule=faults),
         FlowConfig(cca_factory=lambda: BBR(seed=2), rm=RM,
                    label="healthy")],
        duration=DURATION, warmup=10.0,
        max_events=50_000_000, wall_clock_budget=120.0)


def bursty_loss():
    """2% mean Gilbert-Elliott loss (bursts of ~8 packets) on one flow."""
    faults = FaultSchedule(seed=3).gilbert_elliott(
        0.0, float("inf"), mean_loss=0.02, burst_packets=8.0)
    return run(
        dumbbell_links(LINK),
        [FlowConfig(cca_factory=lambda: BBR(seed=1), rm=RM,
                    label="victim (2% GE loss)", fault_schedule=faults),
         FlowConfig(cca_factory=lambda: BBR(seed=2), rm=RM,
                    label="healthy")],
        duration=DURATION, warmup=10.0,
        max_events=50_000_000, wall_clock_budget=120.0)


def main():
    result = scheduled_blackouts()
    print(describe_run(
        "BBR vs BBR, one flow behind scheduled 0.5 s blackouts",
        result,
        paper_numbers="non-congestive impairments starve the victim"))
    print()
    print(describe_run(
        "BBR vs BBR, one flow behind 2% bursty Gilbert-Elliott loss",
        bursty_loss()))


if __name__ == "__main__":
    main()
