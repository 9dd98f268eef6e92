"""Section 5.1: Copa starvation via min-RTT poisoning.

Paper setup: 120 Mbit/s Mahimahi link, Rm = 60 ms; one packet observes
a 59 ms RTT. Paper results: a single flow drops to ~8 Mbit/s; with two
flows the poisoned one gets 8.8 Mbit/s and the clean one 95 Mbit/s.

Our numbers differ in level (our Copa's delta = 0.5 and the clean
simulator leave a milder perceived dq than Mahimahi's noisy stack), but
the shape holds: a 1 ms measurement error collapses throughput by an
order of magnitude, and the clean competitor absorbs the freed capacity.
"""

from conftest import definition2, report
from repro import units
from repro.analysis.starvation import (copa_single_flow_poisoned,
                                       copa_two_flow_poisoned)


def generate():
    single = copa_single_flow_poisoned(duration=30.0, warmup=10.0)
    two = copa_two_flow_poisoned(duration=30.0, warmup=10.0)
    return single, two


def test_sec51_copa_poisoning(once):
    single, two = once(generate)
    s_tput = units.to_mbps(single.stats[0].throughput)
    poisoned = units.to_mbps(two.stats[0].throughput)
    normal = units.to_mbps(two.stats[1].throughput)
    skewed = two.fairness(3)
    lines = [
        f"single poisoned flow: {s_tput:.1f} Mbit/s "
        f"(paper ~8; link 120)",
        f"two flows: poisoned {poisoned:.1f} vs normal {normal:.1f} "
        f"Mbit/s (paper 8.8 vs 95)",
        f"two-flow ratio: {normal / poisoned:.1f} (paper ~10.8)",
        definition2(skewed),
    ]
    report("Section 5.1: Copa min-RTT poisoning", lines)

    # Shape assertions: order-of-magnitude collapse from one bad sample.
    assert s_tput < 30.0            # vs 120 available
    assert normal > 3.0 * poisoned  # heavily skewed split
    assert not skewed.is_s_fair
    assert normal > 80.0            # clean flow takes the capacity
    assert poisoned < 25.0
