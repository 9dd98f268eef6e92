"""Section 6.4 (extension): explicit signaling avoids starvation.

The paper conjectures that AQM-set ECN marks — an unambiguous congestion
signal — coupled with CCAs that ignore small amounts of loss can prevent
starvation. This bench tests the conjecture head to head:

* PCC Allegro under 2%/0% asymmetric random loss starves (Section 5.4);
* ECN-driven AIMD under the *same* loss asymmetry (marks at 1/2 BDP of
  backlog) stays near-fair at high utilization.
"""

from conftest import report
from repro import units
from repro.analysis.starvation import allegro_asymmetric_loss
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                        ScenarioSpec)

RM = units.ms(40)
RATE_MBPS = 120.0


def run_ecn_pair():
    rate = units.mbps(RATE_MBPS)
    return ScenarioSpec(
        link=LinkSpec(rate=rate, buffer_bdp=4.0,
                      ecn_threshold_bytes=0.5 * rate * RM),
        flows=(FlowSpec(cca=CCASpec("ecn-aimd"), rm=RM, label="lossy",
                        data_elements=(ElementSpec(
                            "random_loss",
                            {"loss_prob": 0.02, "seed": 9}),)),
               FlowSpec(cca=CCASpec("ecn-aimd"), rm=RM, label="clean")),
    ).run(duration=60.0, warmup=25.0)


def generate():
    allegro = allegro_asymmetric_loss(loss1=0.02, loss2=0.0,
                                      duration=90.0, warmup=45.0)
    ecn = run_ecn_pair()
    return allegro, ecn


def test_sec64_ecn_vs_allegro(once):
    allegro, ecn = once(generate)
    lines = [
        "2% random loss on one flow, none on the other "
        f"({RATE_MBPS:.0f} Mbit/s):",
        f"  Allegro (loss signal):   "
        f"{units.to_mbps(allegro.stats[0].throughput):6.1f} vs "
        f"{units.to_mbps(allegro.stats[1].throughput):6.1f} Mbit/s "
        f"(ratio {allegro.throughput_ratio():.1f})",
        f"  EcnAimd (ECN signal):    "
        f"{units.to_mbps(ecn.stats[0].throughput):6.1f} vs "
        f"{units.to_mbps(ecn.stats[1].throughput):6.1f} Mbit/s "
        f"(ratio {ecn.throughput_ratio():.1f})",
        "(paper 6.4: ECN 'may help CCAs avoid starvation' — confirmed)",
    ]
    report("Section 6.4 extension: explicit signaling", lines)

    assert allegro.throughput_ratio() > 2.5     # ambiguous signal: starves
    assert ecn.throughput_ratio() < 2.5         # unambiguous: fair
    assert ecn.utilization() > 0.8
