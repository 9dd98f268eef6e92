"""Section 5.2: BBR cwnd-limited starvation with unequal RTTs.

Paper setup: two BBR flows (Linux v5.13) with Rm 40 ms and 80 ms on a
120 Mbit/s link for 60 s; OS jitter pushed them into cwnd-limited mode.
Paper result: 8.3 vs 107 Mbit/s (the smaller-Rm flow starves).

We add a 4 ms ACK-aggregation element per flow as the jitter source
(the paper notes "on paths without OS jitter, some other source of
jitter may be necessary to break BBR").
"""

from conftest import report
from repro import units
from repro.analysis.starvation import bbr_rtt_starvation


def generate():
    return bbr_rtt_starvation(duration=60.0, warmup=20.0)


def test_sec52_bbr_rtt_starvation(once):
    result = once(generate)
    rm40 = units.to_mbps(result.stats[0].throughput)
    rm80 = units.to_mbps(result.stats[1].throughput)
    lines = [
        f"Rm=40ms flow: {rm40:6.1f} Mbit/s   (paper:   8.3)",
        f"Rm=80ms flow: {rm80:6.1f} Mbit/s   (paper: 107.0)",
        f"ratio: {rm80 / max(rm40, 1e-9):.1f}   (paper ~12.9)",
        f"utilization: {result.utilization():.1%}",
    ]
    report("Section 5.2: BBR starvation (cwnd-limited mode)", lines)

    # Shape: the smaller-Rm flow starves by an order of magnitude while
    # the link stays nearly fully utilized.
    assert rm80 > 5.0 * rm40
    assert rm40 < 20.0
    assert rm80 > 80.0
    assert result.utilization() > 0.85


def test_sec52_bbr_quanta_ablation(once):
    """Ablation: the +quanta term in BBR's cwnd.

    The paper's fixed-point algebra says that without +quanta *any*
    cwnd split satisfies the cwnd-limited equilibrium equations (see
    tests/test_cca_bbr.py::test_zero_quanta_removes_fixed_point_anchor
    for the algebra itself). Dynamically, however, the PROBE_BW gain
    cycles provide an independent convergence force, so in this
    equal-RTT scenario removing quanta degrades fairness only mildly —
    the bench documents that the anchor is about the fixed point, not
    the transient, and asserts quanta never *hurts* fairness."""
    from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                            ScenarioSpec)

    def run(quanta):
        def flow(seed, label, start_time=0.0):
            return FlowSpec(
                cca=CCASpec("bbr", {"seed": seed, "quanta_packets": quanta}),
                rm=units.ms(40), label=label, start_time=start_time,
                ack_elements=(ElementSpec("ack_aggregation",
                                          {"period": units.ms(4)}),))

        return ScenarioSpec(
            link=LinkSpec(rate=units.mbps(48), buffer_bdp=8.0),
            flows=(flow(1, "early"), flow(2, "late", start_time=5.0)),
        ).run(duration=45.0, warmup=20.0)

    def generate():
        return run(0.0), run(3.0)

    without, with_quanta = once(generate)
    lines = [
        "late-starting flow vs incumbent (48 Mbit/s, equal Rm):",
        f"  quanta=0: ratio {without.throughput_ratio():.2f}",
        f"  quanta=3: ratio {with_quanta.throughput_ratio():.2f}",
    ]
    report("Section 5.2 ablation: BBR's +quanta term", lines)
    # The anchor should make sharing at least as fair (typically much
    # fairer) than the quanta-free variant.
    assert (with_quanta.throughput_ratio()
            <= without.throughput_ratio() + 0.5)
