"""Section 6.2 (extension): larger oscillations avoid starvation.

The paper argues a CCA whose equilibrium delay oscillation exceeds the
jitter keeps extracting fresh information ("different blocks/bits each
time") and conjectures "AIMD on delay is an interesting design space for
researchers to seek starvation-free CCAs".

This bench runs the same min-RTT-poisoning adversary (error 10 ms)
against Vegas (delta -> 0) and DelayAimd (delta ~ 30 ms threshold)
across link rates. The distinguishing signature:

* Vegas's victim is pinned at an absolute rate ~alpha*mss/err, so its
  unfairness ratio grows linearly with capacity — no finite s bounds
  it: starvation by Definition 3.
* DelayAimd's victim keeps a roughly constant *share* — the ratio is
  bounded by the sawtooth duty-cycle geometry, independent of capacity:
  s-fair for a finite (if ugly) s.
"""

from conftest import report
from repro import units
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                        ScenarioSpec)

RM = units.ms(40)
RATES = [12.0, 48.0, 120.0]


def poisoned_pair(cca, rate_mbps, duration=60.0):
    return ScenarioSpec(
        link=LinkSpec(rate=units.mbps(rate_mbps), buffer_bdp=8.0),
        flows=(FlowSpec(cca=cca, rm=RM, label="poisoned",
                        ack_elements=(ElementSpec(
                            "exempt_first_jitter",
                            {"eta": units.ms(10), "exempt_seqs": [0]}),)),
               FlowSpec(cca=cca, rm=RM, label="clean",
                        ack_elements=(ElementSpec(
                            "constant_jitter", {"eta": units.ms(10)}),))),
    ).run(duration=duration, warmup=duration / 2)


def generate():
    rows = []
    for rate in RATES:
        delay_aimd = poisoned_pair(
            CCASpec("delay-aimd", {"threshold": units.ms(30)}), rate)
        vegas = poisoned_pair(CCASpec("vegas"), rate)
        rows.append((rate, delay_aimd, vegas))
    return rows


def test_sec62_delay_aimd_vs_vegas(once):
    rows = once(generate)
    lines = ["victim throughput / unfairness ratio under a 10 ms "
             "min-RTT poisoning:",
             "C (Mbit/s)   DelayAimd victim/ratio    Vegas victim/ratio"]
    for rate, da, vg in rows:
        lines.append(
            f"{rate:9.0f}   "
            f"{units.to_mbps(da.stats[0].throughput):7.2f} Mbit/s "
            f"/ {da.throughput_ratio():5.1f}    "
            f"{units.to_mbps(vg.stats[0].throughput):7.2f} Mbit/s "
            f"/ {vg.throughput_ratio():5.1f}")
    lines.append("shape: Vegas's victim is PINNED (ratio grows with C = "
                 "starvation); DelayAimd's victim SCALES (bounded s).")
    report("Section 6.2 extension: AIMD-on-delay resists starvation",
           lines)

    first_rate, first_da, first_vg = rows[0]
    last_rate, last_da, last_vg = rows[-1]
    capacity_growth = last_rate / first_rate            # 10x

    # Vegas: victim absolute throughput ~constant; ratio grows ~with C.
    vegas_victims = [vg.stats[0].throughput for _, _, vg in rows]
    assert max(vegas_victims) < 2.0 * min(vegas_victims)
    assert (last_vg.throughput_ratio()
            > 0.4 * capacity_growth * first_vg.throughput_ratio())

    # DelayAimd: victim throughput grows with capacity; ratio bounded.
    da_victims = [da.stats[0].throughput for _, da, _ in rows]
    assert da_victims[-1] > 4.0 * da_victims[0]
    assert (last_da.throughput_ratio()
            < 3.0 * first_da.throughput_ratio())
    # Efficiency maintained throughout.
    for _, da, _ in rows:
        assert da.utilization() > 0.9
