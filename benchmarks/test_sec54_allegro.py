"""Section 5.4: PCC Allegro under asymmetric random loss.

Paper setup: two PCC flows, 60 s, 120 Mbit/s, 40 ms RTT, 1 BDP buffer.
Paper results:
  * one flow with 2% random loss: 10.3 vs 99.1 Mbit/s (starved);
  * both flows with 2% loss: fair and efficient;
  * a single flow with 2% loss: full utilization.

Loss plays the role delay plays for BBR: an unequal congestion signal
between two flows, with a signal space too small for the rate space.
"""

from conftest import definition2, report
from repro import units
from repro.analysis.starvation import (allegro_asymmetric_loss,
                                       allegro_single_flow_loss)


def generate():
    asym = allegro_asymmetric_loss(loss1=0.02, loss2=0.0, duration=90.0,
                                   warmup=45.0)
    sym = allegro_asymmetric_loss(loss1=0.02, loss2=0.02, duration=60.0,
                                  warmup=25.0)
    single = allegro_single_flow_loss(loss=0.02, duration=40.0,
                                      warmup=15.0)
    return asym, sym, single


def test_sec54_allegro_loss(once):
    asym, sym, single = once(generate)
    a_lossy = units.to_mbps(asym.stats[0].throughput)
    a_clean = units.to_mbps(asym.stats[1].throughput)
    s_1 = units.to_mbps(sym.stats[0].throughput)
    s_2 = units.to_mbps(sym.stats[1].throughput)
    skewed = asym.fairness(2.5)
    fair = sym.fairness(2)
    lines = [
        f"2%/0%: lossy {a_lossy:.1f} vs clean {a_clean:.1f} Mbit/s "
        f"(paper 10.3 vs 99.1)",
        f"2%/2%: {s_1:.1f} vs {s_2:.1f} Mbit/s (paper: fair)",
        f"single flow with 2% loss: "
        f"{units.to_mbps(single.stats[0].throughput):.1f} Mbit/s "
        f"(paper: ~full 120)",
        "2%/0%: " + definition2(skewed),
        "2%/2%: " + definition2(fair),
    ]
    report("Section 5.4: Allegro and asymmetric loss", lines)

    # Asymmetric loss: heavily skewed.
    assert a_clean > 2.5 * a_lossy
    assert not skewed.is_s_fair
    assert a_clean > 70.0
    # Symmetric loss: fair (the signal is equal, so no starvation).
    assert sym.throughput_ratio() < 2.0
    assert fair.is_s_fair
    # Single flow: loss below the 5% threshold doesn't hurt.
    assert single.utilization() > 0.8
