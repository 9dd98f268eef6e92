#!/usr/bin/env python3
"""Section 6.3 demo: designing FOR jitter with Algorithm 1.

Side-by-side comparison under the same jitter budget D = 10 ms:

* Vegas (delay-convergent, delta -> 0): the adversary poisons one
  flow's min-RTT estimate with a single fast packet and the flow
  starves.
* Algorithm 1 (exponential rate-delay map, equilibrium delay variation
  designed around D): the same adversary moves the flow by at most one
  s-band, so the throughput ratio stays near s = 2.

The price Algorithm 1 pays is exactly the paper's trade-off: it keeps
queueing delay above D at all times (Theorem 2 makes that mandatory for
efficiency under jitter).

Run:  python examples/jitter_aware_demo.py
"""

from repro import units
from repro.analysis.report import describe_run
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                        ScenarioSpec)

RM = units.ms(40)
D = units.ms(10)


def run_pair(cca, rate_mbps, duration=90.0):
    return ScenarioSpec(
        link=LinkSpec(rate=units.mbps(rate_mbps), buffer_bdp=20.0),
        flows=(FlowSpec(cca=cca, rm=RM, label="poisoned",
                        ack_elements=(ElementSpec(
                            "exempt_first_jitter",
                            {"eta": D, "exempt_seqs": [0]}),)),
               FlowSpec(cca=cca, rm=RM, label="clean",
                        ack_elements=(ElementSpec(
                            "constant_jitter", {"eta": D}),))),
    ).run(duration=duration, warmup=duration / 2)


def main():
    print(f"Adversary: min-RTT poisoning within a jitter budget of "
          f"D = {D * 1e3:.0f} ms.\n")

    vegas = run_pair(CCASpec("vegas"), rate_mbps=48)
    print(describe_run("Vegas under the adversary", vegas,
                       paper_numbers="delta_max ~ 0 -> Theorem 1 bites"))
    print()

    jitter_aware = run_pair(
        CCASpec("jitter-aware", {"jitter_bound": D, "s": 2.0,
                                 "rmax": units.ms(100),
                                 "mu_minus": units.kbps(100)}),
        rate_mbps=6)
    print(describe_run(
        "Algorithm 1 under the same adversary", jitter_aware,
        paper_numbers="delay bands of width D per factor-s rate band"))
    print()

    print("Summary:")
    print(f"  Vegas ratio:       {vegas.throughput_ratio():6.1f}  "
          f"(starved)")
    print(f"  Algorithm 1 ratio: {jitter_aware.throughput_ratio():6.1f}"
          f"  (bounded by design near s = 2)")
    mean_rtt = jitter_aware.stats[1].mean_rtt
    print(f"  Algorithm 1's price: mean RTT {mean_rtt * 1e3:.0f} ms "
          f"(> Rm + D = {(RM + D) * 1e3:.0f} ms, per Theorem 2)")


if __name__ == "__main__":
    main()
