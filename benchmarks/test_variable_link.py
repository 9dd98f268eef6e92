"""Variable-rate link robustness panel (paper footnote 4).

"We assume that the bottleneck link rate C is constant; when it varies
as on wireless links, designing a CCA only becomes harder." This bench
quantifies the claim: every delay-convergent CCA's utilization on a
cellular-like variable link, next to its ideal-link utilization.

The shape to see: the variable link costs every delay-convergent CCA
utilization and/or delay, and the delay-based schemes misread capacity
drops (queue spikes) as congestion.
"""

from conftest import report
from repro import units
from repro.analysis.backends import SerialBackend
from repro.analysis.harness import ResilientSweep, RunBudget
from repro.ccas import registry
from repro.sim.engine import Simulator
from repro.sim.host import Receiver, Sender
from repro.sim.path import DelayElement
from repro.sim.varlink import VariableRateQueue, cellular_schedule

RM = units.ms(40)
DURATION = 30.0

#: Panel rows: display label -> (registry name, constructor params).
PANEL = {"Vegas": ("vegas", {}), "Copa": ("copa", {}),
         "BBR": ("bbr", {"seed": 3}), "Cubic": ("cubic", {})}


def run_variable(cca, seed=5, max_events=None,
                 wall_clock_budget=None):
    schedule = cellular_schedule(mean_mbps=12.0, period=2.0, spread=0.8,
                                 seed=seed)
    sim = Simulator()
    sender = Sender(sim, 0, cca)
    receiver = Receiver(sim, 0)
    queue = VariableRateQueue(sim, schedule,
                              buffer_bytes=200 * 1500)
    delay = DelayElement(sim, receiver, RM)
    queue.register_sink(0, delay)
    sender.attach_path(queue)
    receiver.attach_ack_path(sender)
    sender.start()
    sim.run(DURATION, max_events=max_events,
            wall_clock_budget=wall_clock_budget)
    delivered_rate = sender.delivered_bytes / DURATION
    return delivered_rate / schedule.mean_rate(), sender


def run_point(params, budget):
    """Module-level and registry-driven, so the panel is spawn-safe
    (swap in ProcessPoolBackend to parallelize it)."""
    utilization, sender = run_variable(
        registry.create(params["cca"], params["params"]),
        max_events=budget.max_events,
        wall_clock_budget=budget.wall_clock)
    return {"utilization": utilization,
            "losses": sender.losses_detected}


def generate():
    # Run the CCA panel on the resilient harness: one divergent CCA
    # surfaces as a recorded failure, not a hung/aborted bench.
    sweep = ResilientSweep(run_point,
                           budget=RunBudget(max_events=10_000_000,
                                            wall_clock=120.0),
                           backend=SerialBackend())
    outcome = sweep.run([(label, {"cca": name, "params": params})
                         for label, (name, params) in PANEL.items()])
    return outcome


def test_variable_link_panel(once):
    outcome = once(generate)
    assert not outcome.failures, outcome.failures
    results = {name: (r["utilization"], r["losses"])
               for name, r in outcome.completed.items()}
    lines = ["cellular-like link (mean 12 Mbit/s, 2 s period, seeded):",
             "CCA     utilization  losses"]
    for name, (util, losses) in results.items():
        lines.append(f"{name:6s}  {util:10.2f}  {losses:6d}")
    report("Footnote 4: variable-rate link robustness", lines)

    # Everything survives (no collapse), nothing exceeds capacity.
    for name, (util, _) in results.items():
        assert 0.25 < util <= 1.05, name
    # The loss-based baseline rides the buffer and converts capacity
    # dips into drops; delay-based CCAs see them as delay instead.
    assert results["Cubic"][1] > results["Vegas"][1]
