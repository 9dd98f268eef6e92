"""Theorem 1, replayed packet-by-packet.

The theorem's construction is stated over fluid trajectories; this bench
closes the loop by executing the *same* adversary in the packet-level
simulator:

1. build the Case 1 construction on the fluid model (pigeonhole pair,
   Equation 5 d*(t), per-flow jitter schedules eta_i(t));
2. spell the two-flow run as a ``ScenarioSpec``: a dumbbell at rate
   C1 + C2, each ``window-target`` flow started at the converged window
   of its single-flow run, and eta_i(t) played on its ACK path by the
   ``step_trace_jitter`` element the fluid run played; then pre-fill
   the built FIFO with dummy packets to realize d*(0);
3. measure throughputs: two identical, deterministic, delay-convergent
   window CCAs share one link at ~the engineered ratio, every packet's
   extra delay within the D = 20 ms jitter budget.
"""

import pytest

from conftest import report
from repro import units
from repro.core.emulation import step_trace
from repro.core.theorems import construct_starvation
from repro.model.cca import WindowTargetCCA
from repro.sim.packet import Packet
from repro.sim.runner import summarize
from repro.spec import CCASpec, FlowSpec, LinkSpec, ScenarioSpec

RM = 0.05
S = 10.0
HORIZON = 8.0


def generate():
    construction = construct_starvation(
        lambda initial: WindowTargetCCA(alpha=6000.0, rm=RM,
                                        pedestal=0.04, initial=initial),
        rm=RM, s=S, f=1.0, delta_max=0.002, jitter_bound=0.02,
        lam=0.15e6, duration=40.0, emulate_duration=HORIZON + 2.0)

    plan = construction.plan
    bar1 = construction.traj1.shifted(construction.pair.c1.t_converged)
    bar2 = construction.traj2.shifted(construction.pair.c2.t_converged)

    def flow(label, bar, etas):
        window = float(bar.rates[0] * bar.delays[0])
        return FlowSpec(
            cca=CCASpec("window-target", {"rm": RM, "pedestal": 0.04,
                                          "initial_window": window}),
            rm=RM, label=label,
            ack_elements=(step_trace(plan.times, etas),))

    spec = ScenarioSpec(link=LinkSpec(rate=plan.link_rate),
                        flows=(flow("victim", bar1, plan.eta1),
                               flow("winner", bar2, plan.eta2)))
    scenario = spec.build()
    # Pre-fill the queue to realize the construction's d*(0).
    prefill_packets = int(plan.initial_queue_delay * plan.link_rate
                          // 1500)
    for i in range(prefill_packets):
        scenario.queue.receive(Packet(9999, i, 1500, 0.0), 0.0)
    scenario.run(HORIZON)
    stats = summarize(scenario, HORIZON, warmup=1.0)
    return construction, stats, prefill_packets


def test_theorem1_packet_level(once):
    construction, stats, prefill = once(generate)
    victim = units.to_mbps(stats[0].throughput)
    winner = units.to_mbps(stats[1].throughput)
    ratio = winner / max(victim, 1e-9)
    lines = [
        f"fluid construction: C1 = "
        f"{units.to_mbps(construction.pair.c1.link_rate):.1f}, C2 = "
        f"{units.to_mbps(construction.pair.c2.link_rate):.1f} Mbit/s, "
        f"D = {construction.jitter_bound * 1e3:.0f} ms",
        f"queue pre-filled with {prefill} packets "
        f"({construction.plan.initial_queue_delay * 1e3:.1f} ms)",
        f"packet-level throughputs: victim {victim:.1f}, winner "
        f"{winner:.1f} Mbit/s -> ratio {ratio:.1f} (target s = {S:.0f})",
        f"(fluid ratio was {construction.achieved_ratio:.1f})",
    ]
    report("Theorem 1 executed in the packet simulator", lines)

    assert construction.case == 1
    # The packet replay keeps the engineered starvation (some slack for
    # packetization noise).
    assert ratio >= 0.7 * S
    # Both flows track their intended single-flow rates.
    assert victim == pytest.approx(
        units.to_mbps(construction.pair.c1.link_rate), rel=0.3)
    assert winner == pytest.approx(
        units.to_mbps(construction.pair.c2.link_rate), rel=0.3)
