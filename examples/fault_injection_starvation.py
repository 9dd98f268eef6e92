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

Both scenarios are plain :class:`~repro.spec.ScenarioSpec` data — an
outage is a ``blackout`` element with a ``start``/``end`` window in the
victim's ``data_elements`` — so ``spec.dumps()`` is a file ``repro run
--spec`` replays.

Run:  python examples/fault_injection_starvation.py
"""

from repro import units
from repro.analysis.report import describe_run
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                        ScenarioSpec)

LINK = LinkSpec(rate=units.mbps(48), buffer_bdp=4.0)
RM = units.ms(40)
DURATION = 45.0


def victim_vs_healthy(label, elements):
    """Two BBR flows; only the victim's data path carries ``elements``."""
    spec = ScenarioSpec(
        link=LINK,
        flows=(FlowSpec(cca=CCASpec("bbr", {"seed": 1}), rm=RM,
                        label=label, data_elements=elements),
               FlowSpec(cca=CCASpec("bbr", {"seed": 2}), rm=RM,
                        label="healthy")))
    return spec.run(duration=DURATION, warmup=10.0,
                    max_events=50_000_000, wall_clock_budget=120.0)


def scheduled_blackouts():
    """0.5 s outage every 5 s, only on the victim's path."""
    return victim_vs_healthy(
        "victim (blackouts)",
        tuple(ElementSpec("blackout", start=5.0 * k, end=5.0 * k + 0.5)
              for k in range(1, int(DURATION / 5))))


def bursty_loss():
    """2% mean Gilbert-Elliott loss (bursts of ~8 packets) on one flow."""
    return victim_vs_healthy(
        "victim (2% GE loss)",
        (ElementSpec("gilbert_elliott",
                     {"mean_loss": 0.02, "burst_packets": 8.0,
                      "seed": 3000}),))


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
