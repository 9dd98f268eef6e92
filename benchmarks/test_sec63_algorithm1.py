"""Section 6.3, Algorithm 1: the jitter-aware CCA avoids starvation.

Two experiments:

1. Packet-level: Algorithm 1 vs Vegas under the same jitter budget D.
   The adversary (min-RTT poisoning + asymmetric jitter) starves Vegas;
   Algorithm 1's exponential map keeps the ratio within ~one s-band.
2. CCAC-substitute verification on the fluid Algorithm 1: holding the
   adversary at (D, 0) moves the shares (the jitter reaches the CCA),
   yet exhaustive search over all discretized adversary traces (short
   horizon) plus guided search (long horizon) finds no s-fairness or
   efficiency violation — mirroring the paper's "CCAC was unable to
   produce such traces".
"""

from conftest import report
from repro import units
from repro.model.cca import FluidJitterAware
from repro.model.explorer import (NetParams, TraceStep, exhaustive_search,
                                  guided_search, simulate_trace,
                                  underutilization_objective,
                                  unfairness_objective)
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                        ScenarioSpec)

RM = units.ms(40)
D = units.ms(10)
S = 2.0


JITTER_AWARE = CCASpec("jitter-aware", {
    "jitter_bound": D, "s": S, "rmax": units.ms(100),
    "mu_minus": units.kbps(100)})


def run_packet_comparison():
    def scenario(cca, rate_mbps):
        return ScenarioSpec(
            link=LinkSpec(rate=units.mbps(rate_mbps), buffer_bdp=20.0),
            flows=(FlowSpec(cca=cca, rm=RM, label="poisoned",
                            ack_elements=(ElementSpec(
                                "exempt_first_jitter",
                                {"eta": D, "exempt_seqs": [0]}),)),
                   FlowSpec(cca=cca, rm=RM, label="clean",
                            ack_elements=(ElementSpec(
                                "constant_jitter", {"eta": D}),))),
        ).run(duration=90.0, warmup=40.0)

    vegas = scenario(CCASpec("vegas"), 48.0)
    jitter_aware = scenario(JITTER_AWARE, 6.0)
    return vegas, jitter_aware


def run_explorer_verification():
    # An unbounded buffer keeps Algorithm 1's map in charge: its band at
    # this rate (~80 ms of queueing) is more than a 60-packet buffer
    # holds, and there overflow, not jitter, sets every trajectory.
    net = NetParams(link_rate=1.5e6, rm=0.05, jitter_bound=0.02)
    flows = [FluidJitterAware(jitter_bound=0.02, rm=0.05, s=S, rmax=0.2,
                              mu_minus=12500.0, initial=0.75e6)
             for _ in range(2)]
    held = simulate_trace(
        flows, net, [TraceStep((0.02, 0.0), (False, False))] * 400)
    short = exhaustive_search(flows, net, horizon=6,
                              objective=unfairness_objective)
    long_fair = guided_search(flows, net, horizon=60,
                              objective=unfairness_objective,
                              rollouts=60, seed=11)
    long_util = guided_search(flows, net, horizon=60,
                              objective=underutilization_objective(net),
                              rollouts=60, seed=12)
    return held, short, long_fair, long_util


def test_sec63_algorithm1_vs_vegas(once):
    vegas, jitter_aware = once(run_packet_comparison)
    lines = [
        f"same adversary (min-RTT poisoning, jitter budget D = 10 ms):",
        f"  Vegas       ratio {vegas.throughput_ratio():6.1f}  "
        f"(tputs {units.to_mbps(vegas.stats[0].throughput):.2f} / "
        f"{units.to_mbps(vegas.stats[1].throughput):.2f} Mbit/s)",
        f"  Algorithm 1 ratio {jitter_aware.throughput_ratio():6.1f}  "
        f"(tputs {units.to_mbps(jitter_aware.stats[0].throughput):.2f} /"
        f" {units.to_mbps(jitter_aware.stats[1].throughput):.2f}"
        f" Mbit/s)",
    ]
    report("Section 6.3: Algorithm 1 vs Vegas under jitter <= D", lines)

    assert vegas.throughput_ratio() > 5.0           # Vegas starves
    assert jitter_aware.throughput_ratio() < 4.0    # Algorithm 1 holds
    assert jitter_aware.utilization() > 0.6


def test_sec63_algorithm1_explorer_verification(once):
    held, short, long_fair, long_util = once(run_explorer_verification)
    lines = [
        f"adversary held at (D, 0) for 400 steps: ratio "
        f"{held.throughput_ratio():.2f} (the jitter reaches the CCA)",
        f"exhaustive search (horizon 6, {short.traces_evaluated} "
        f"traces): worst ratio {short.best_objective:.2f}",
        f"guided search (horizon 60): worst ratio "
        f"{long_fair.best_objective:.2f}",
        f"guided search (horizon 60): worst under-utilization "
        f"{long_util.best_objective:.2f}",
        "(paper: 'CCAC was unable to produce such traces')",
    ]
    report("Section 6.3: adversarial verification of Algorithm 1", lines)

    assert held.throughput_ratio() > 1.5         # not a vacuous setup
    assert short.exhaustive
    assert short.best_objective < S * 2          # transient headroom
    assert long_fair.best_objective < S
    assert long_util.best_objective < 0.5
