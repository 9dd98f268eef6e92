"""Section 5.3: PCC Vivace starvation under ACK aggregation.

Paper setup: two Vivace flows, 60 ms propagation delay, 120 Mbit/s; one
flow's ACKs arrive only at integer multiples of 60 ms. Paper result:
9.9 vs 99.4 Mbit/s.

The aggregation injects spurious positive RTT gradients into the
victim's monitor intervals, so its utility always improves at lower
rates — exactly the ambiguity Theorem 1 exploits.
"""

from conftest import definition2, report
from repro import units
from repro.analysis.starvation import vivace_ack_aggregation


def generate():
    return vivace_ack_aggregation(duration=60.0, warmup=20.0)


def test_sec53_vivace_ack_aggregation(once):
    result = once(generate)
    aggregated = units.to_mbps(result.stats[0].throughput)
    normal = units.to_mbps(result.stats[1].throughput)
    starved = result.fairness(5)
    lines = [
        f"aggregated flow: {aggregated:6.1f} Mbit/s   (paper:  9.9)",
        f"normal flow:     {normal:6.1f} Mbit/s   (paper: 99.4)",
        f"ratio: {normal / max(aggregated, 1e-9):.1f}   (paper ~10)",
        definition2(starved),
    ]
    report("Section 5.3: Vivace under 60 ms ACK aggregation", lines)

    assert normal > 5.0 * max(aggregated, 1e-9)
    assert not starved.is_s_fair
    assert aggregated < 20.0
    assert normal > 80.0
