"""Figure 7: Reno and Cubic with one delayed-ACK receiver.

Paper setup: two flows on a 6 Mbit/s, 120 ms link with 60 packets of
buffer, run 200 s; the lower flow's receiver delays ACKs of up to 4
packets. Paper result: throughput ratios of 2.7x (Reno) and 3.2x
(Cubic) — *bounded* unfairness, not starvation, because loss-based
CCAs' large oscillations keep leaking rate information (Section 6.2).
"""

from conftest import definition2, report
from repro import units
from repro.analysis.starvation import loss_based_delayed_acks
from repro.spec import CCASpec, FlowSpec, LinkSpec, ScenarioSpec

RENO = CCASpec("reno")


def figure7_link(*flows):
    """Two flows for 200 s on the figure's 6 Mbit/s, 60-packet link."""
    return ScenarioSpec(
        link=LinkSpec(rate=units.mbps(6), buffer_bytes=60 * 1500),
        flows=flows,
    ).run(duration=200.0, warmup=40.0)


def generate():
    reno = loss_based_delayed_acks("reno", duration=200.0, warmup=40.0)
    cubic = loss_based_delayed_acks("cubic", duration=200.0, warmup=40.0)
    return reno, cubic


def test_fig7_reno_cubic_delayed_acks(once):
    reno, cubic = once(generate)
    lines = []
    for name, result, paper in (("Reno", reno, 2.7),
                                ("Cubic", cubic, 3.2)):
        delack = units.to_mbps(result.stats[0].throughput)
        perpkt = units.to_mbps(result.stats[1].throughput)
        ratio = perpkt / max(delack, 1e-9)
        lines.append(f"{name:5s}: delayed-ACK {delack:.2f} vs per-packet "
                     f"{perpkt:.2f} Mbit/s -> ratio {ratio:.2f} "
                     f"(paper {paper}x)")
        for s in (1.5, 12):
            lines.append(f"{name:5s}: " + definition2(result.fairness(s)))
    report("Figure 7: delayed ACKs bias loss-based CCAs", lines)

    for result in (reno, cubic):
        ratio = result.throughput_ratio()
        # Biased against the delayed-ACK flow...
        assert result.stats[1].throughput > result.stats[0].throughput
        assert ratio > 1.5
        assert not result.fairness(1.5).is_s_fair
        # ...but bounded: no starvation (both flows keep > 5% of C).
        assert ratio < 12.0
        assert result.fairness(12).is_s_fair
        for stats in result.stats:
            assert stats.throughput > 0.05 * units.mbps(6)
        # High aggregate utilization throughout.
        assert result.utilization() > 0.8

    # Cubic's unfairness is at least Reno's (paper: 3.2 vs 2.7).
    assert cubic.throughput_ratio() >= 0.8 * reno.throughput_ratio()


def test_fig7_cwnd_evolution(once):
    """The figure's actual content: cwnd(t) for both flows.

    The per-packet-ACK flow rides a tall sawtooth; the delayed-ACK flow
    is repeatedly knocked down near the buffer-full episodes. Printed as
    a coarse time series."""
    def generate():
        return figure7_link(
            FlowSpec(cca=RENO, rm=units.ms(120), label="delacks",
                     ack_every=4, ack_timeout=units.ms(200)),
            FlowSpec(cca=RENO, rm=units.ms(120), label="perpkt"))

    result = once(generate)
    lines = ["time(s)   cwnd[delacks]   cwnd[perpkt]  (packets)"]
    rec0 = result.scenario.flows[0].recorder
    rec1 = result.scenario.flows[1].recorder
    step = max(1, len(rec0.sample_times) // 20)
    for i in range(0, len(rec0.sample_times), step):
        lines.append(f"{rec0.sample_times[i]:7.0f}   "
                     f"{rec0.cwnd_values[i] / 1500:13.1f}   "
                     f"{rec1.cwnd_values[i] / 1500:12.1f}")
    report("Figure 7: cwnd evolution (Reno)", lines)

    # Averaged over the run, the per-packet flow holds the larger cwnd.
    mean0 = sum(rec0.cwnd_values) / len(rec0.cwnd_values)
    mean1 = sum(rec1.cwnd_values) / len(rec1.cwnd_values)
    assert mean1 > 1.3 * mean0


def test_fig7_gso_bursts(once):
    """The Section 5.4 discussion's other burst source: GSO batching.

    "Suppose two flows share a bottleneck, but one of them is
    well-paced while the other sends packets in bursts ... the flow
    that sends packets in bursts is more likely to lose packets." Same
    link as Figure 7; the bursty flow releases packets 8 at a time."""
    def generate():
        return figure7_link(
            FlowSpec(cca=RENO, rm=units.ms(120), burst_size=8,
                     label="bursty"),
            FlowSpec(cca=RENO, rm=units.ms(120), label="paced"))

    result = once(generate)
    bursty = units.to_mbps(result.stats[0].throughput)
    paced = units.to_mbps(result.stats[1].throughput)
    lines = [f"bursty (GSO 8): {bursty:.2f} Mbit/s, paced: "
             f"{paced:.2f} Mbit/s -> ratio "
             f"{result.throughput_ratio():.2f}",
             "(bounded bias against the bursty flow, like delayed ACKs)"]
    report("Figure 7 variant: GSO bursts", lines)

    assert paced > 1.5 * bursty                  # biased...
    assert bursty > 0.05 * units.to_mbps(units.mbps(6))  # ...not starved
    assert result.utilization() > 0.8
