"""Ablation benches for the design choices DESIGN.md calls out.

1. **Copa's min-RTT window** (Section 5.1): Copa remembers its minimum
   RTT over a long window. With an infinite window, one poisoned sample
   starves the flow forever; with a finite window the sample expires and
   the flow recovers — the mitigation trades starvation for periodic
   re-poisoning exposure.

2. **Algorithm 1's AIMD-vs-AIAD** (Section 6.3): the paper reports that
   CCAC guided them to AIMD "because the fairness properties of AIMD are
   critical in the presence of measurement ambiguity". We run two flows
   with asymmetric (within-D) jitter under both decrease rules and
   compare the resulting fairness.

3. **Vivace's RTT-gradient penalty coefficient b**: with b = 0 (pure
   throughput utility) the CCA ignores the spurious gradients injected
   by ACK aggregation — the Section 5.3 starvation disappears, but so
   does the delay bound (the utility no longer restrains the queue).
"""

from conftest import report
from repro import units
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                        ScenarioSpec)

RM = units.ms(40)


def copa_window_ablation():
    def run(window):
        return ScenarioSpec(
            link=LinkSpec(rate=units.mbps(48)),
            flows=(FlowSpec(
                cca=CCASpec("copa", {"min_rtt_window": window}),
                rm=RM, label="poisoned",
                ack_elements=(ElementSpec(
                    "exempt_first_jitter",
                    {"eta": units.ms(5), "exempt_seqs": [0]}),)),),
        ).run(duration=60.0, warmup=40.0)  # measure the late window only

    return run(float("inf")), run(10.0)


def algorithm1_decrease_ablation():
    def run(mode):
        cca = CCASpec("jitter-aware", {
            "jitter_bound": units.ms(10), "s": 2.0, "rmax": units.ms(100),
            "mu_minus": units.kbps(100), "decrease_mode": mode})
        return ScenarioSpec(
            link=LinkSpec(rate=units.mbps(6), buffer_bdp=20.0),
            flows=(FlowSpec(cca=cca, rm=RM, label="jittered",
                            ack_elements=(ElementSpec(
                                "square_wave_jitter",
                                {"high": units.ms(10), "period": 0.7}),)),
                   FlowSpec(cca=cca, rm=RM, label="clean",
                            ack_elements=(ElementSpec(
                                "constant_jitter",
                                {"eta": units.ms(5)}),))),
        ).run(duration=120.0, warmup=60.0)

    return run("multiplicative"), run("additive")


def vivace_gradient_ablation():
    def run(b):
        cca = CCASpec("vivace", {"b": b})
        return ScenarioSpec(
            link=LinkSpec(rate=units.mbps(48), buffer_bdp=8.0),
            flows=(FlowSpec(cca=cca, rm=units.ms(60), label="aggregated",
                            ack_elements=(ElementSpec(
                                "ack_aggregation",
                                {"period": units.ms(60)}),)),
                   FlowSpec(cca=cca, rm=units.ms(60), label="normal")),
        ).run(duration=60.0, warmup=25.0)

    return run(900.0), run(0.0)


def generate():
    return (copa_window_ablation(), algorithm1_decrease_ablation(),
            vivace_gradient_ablation())


def test_ablations(once):
    (copa_inf, copa_windowed), (aimd, aiad), (with_b, no_b) = \
        once(generate)
    lines = [
        "Copa min-RTT window (poisoned flow's late-run throughput):",
        f"  infinite window: "
        f"{units.to_mbps(copa_inf.stats[0].throughput):6.1f} Mbit/s "
        f"(stays starved)",
        f"  10 s window:     "
        f"{units.to_mbps(copa_windowed.stats[0].throughput):6.1f} Mbit/s"
        f" (recovers after expiry)",
        "",
        "Algorithm 1 decrease rule (asymmetric jitter, ratio lower "
        "is fairer):",
        f"  AIMD (paper's choice): ratio {aimd.throughput_ratio():5.2f},"
        f" util {aimd.utilization():.0%}",
        f"  AIAD (ablation):       ratio {aiad.throughput_ratio():5.2f},"
        f" util {aiad.utilization():.0%}",
        "",
        "Vivace RTT-gradient coefficient b (victim of ACK aggregation):",
        f"  b = 900 (paper): victim "
        f"{units.to_mbps(with_b.stats[0].throughput):6.1f} Mbit/s, "
        f"competitor {units.to_mbps(with_b.stats[1].throughput):6.1f}",
        f"  b = 0 (ablated): victim "
        f"{units.to_mbps(no_b.stats[0].throughput):6.1f} Mbit/s, "
        f"competitor {units.to_mbps(no_b.stats[1].throughput):6.1f}, "
        f"max RTT {no_b.stats[1].max_rtt * 1e3:.0f} ms",
    ]
    report("Ablations", lines)

    # Copa: the window is what converts permanent starvation into a
    # transient.
    assert (copa_windowed.stats[0].throughput
            > 2.0 * copa_inf.stats[0].throughput)

    # Algorithm 1: AIMD at least as fair as AIAD under ambiguity.
    assert aimd.throughput_ratio() <= aiad.throughput_ratio() + 0.3
    assert aimd.throughput_ratio() < 4.0

    # Vivace: removing the gradient term rescues the victim...
    assert (no_b.stats[0].throughput
            > 3.0 * with_b.stats[0].throughput)
    # ...but abandons the delay bound (queue grows far beyond Rm).
    assert no_b.stats[1].max_rtt > 2.0 * units.ms(60)
