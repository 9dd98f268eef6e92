"""Seeded, bounded ScenarioSpec generation for the fuzz loop.

The generator samples *valid-by-construction* scenarios: every
parameter is drawn from a range the spec validators and the element
catalog accept, so ``generate_spec`` never raises and the oracle
battery (:mod:`repro.fuzz.oracles`) can treat any failure downstream
as a real finding — "valid spec ⇒ clean run" is the contract the
input hardening in :mod:`repro.spec` exists to uphold.

Reproducibility: one root seed determines the whole campaign. Iteration
``i`` draws from ``random.Random(derive_seed(root, "fuzz", i))`` and
the generated scenario's own root seed is
``derive_seed(root, "fuzz", i, "scenario")``, so regenerating iteration
``i`` never requires replaying iterations ``0..i-1`` — the shrinker and
the corpus both rely on that. All floats are rounded to a few decimals
so specs serialize compactly and diff cleanly in corpus files.

The sampled space deliberately matches where the paper's starvation
results live: any registered CCA, 1-16 competing flows, mixed RTTs,
staggered starts, ACK-path jitter regimes (constant, aggregation,
first-packet-exempt poisoning, square wave), and time-windowed
impairments (blackouts, flapping, bursty and random loss, reordering,
duplication) — in short durations so a campaign of hundreds of
iterations stays cheap. A fraction of iterations
(``FuzzConfig.topology_prob``) swap the dumbbell for a small
parking-lot topology (2-3 serial bottlenecks, mixed long/single-hop
flow paths) so the multi-hop builder and per-queue conservation
invariants get the same adversarial coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random
from typing import Optional, Tuple

from .. import units
from ..ccas import registry
from ..spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec, NodeSpec,
                    ScenarioSpec, TopoLinkSpec, TopologySpec)
from ..spec.seeds import derive_seed


@dataclass(frozen=True)
class FuzzConfig:
    """Bounds of the sampled scenario space.

    The defaults keep individual runs short (1-3 simulated seconds,
    single-digit Mbit/s) while still reaching every registered CCA and
    every element kind the catalog considers safe to randomize.
    """

    max_flows: int = 16
    min_duration: float = 1.0
    max_duration: float = 3.0
    min_rate_mbps: float = 1.0
    max_rate_mbps: float = 20.0
    min_rm: float = 0.005
    max_rm: float = 0.1
    #: Probability that a flow carries an ACK-path element / a plain
    #: data-path element / a windowed impairment, and that the link
    #: carries a windowed impairment.
    ack_element_prob: float = 0.35
    data_element_prob: float = 0.15
    flow_fault_prob: float = 0.25
    link_fault_prob: float = 0.2
    #: Probability that the scenario competes over a parking-lot
    #: topology (2..max_topology_links serial bottlenecks) instead of
    #: the single-queue dumbbell, exercising the multi-hop builder and
    #: per-queue conservation invariants.
    topology_prob: float = 0.2
    max_topology_links: int = 3
    #: Restrict CCAs (None = every registered name).
    ccas: Optional[Tuple[str, ...]] = None


DEFAULT_CONFIG = FuzzConfig()


def _round(value: float, digits: int = 4) -> float:
    return round(float(value), digits)


def _flow_count(rng: Random, config: FuzzConfig) -> int:
    """1..max_flows, weighted toward small scenarios.

    min() of two uniform draws gives a triangular distribution: most
    scenarios stay at 1-4 flows (fast, and where shrunk counterexamples
    end up anyway) while the tail still reaches ``max_flows``.
    """
    a = rng.randrange(config.max_flows)
    b = rng.randrange(config.max_flows)
    return 1 + min(a, b)


def _ack_element(rng: Random) -> ElementSpec:
    kind = rng.choice(["constant_jitter", "ack_aggregation",
                       "exempt_first_jitter", "square_wave_jitter"])
    if kind == "constant_jitter":
        return ElementSpec(kind, {"eta": _round(rng.uniform(0.0, 0.01))})
    if kind == "ack_aggregation":
        return ElementSpec(kind,
                           {"period": _round(rng.uniform(0.002, 0.02))})
    if kind == "exempt_first_jitter":
        return ElementSpec(kind, {
            "eta": _round(rng.uniform(0.0005, 0.005)),
            "exempt_seqs": [0]})
    return ElementSpec(kind, {
        "high": _round(rng.uniform(0.001, 0.01)),
        "period": _round(rng.uniform(0.05, 0.5)),
        "duty": _round(rng.uniform(0.1, 0.9), 2)})


def _gated_element(rng: Random, duration: float) -> ElementSpec:
    """One impairment confined to a window inside the run."""
    kind = rng.choice(["blackout", "flap", "gilbert_elliott", "reorder",
                       "duplicate", "random_loss"])
    start = _round(rng.uniform(0.0, duration * 0.6), 3)
    end = _round(min(duration,
                     start + rng.uniform(0.05, duration * 0.5)), 3)
    if end <= start:
        end = _round(start + 0.05, 3)
    if kind == "blackout":
        # Long total outages starve every flow trivially; keep them
        # short relative to the run so recovery is part of the test.
        end = _round(min(end, start + 0.3), 3)
        params = {}
    elif kind == "flap":
        period = _round(rng.uniform(0.2, 1.0), 3)
        params = {"period": period,
                  "down_time": _round(period * rng.uniform(0.1, 0.5), 4)}
    elif kind == "gilbert_elliott":
        params = {"mean_loss": _round(rng.uniform(0.005, 0.1))}
    elif kind == "reorder":
        params = {"reorder_prob": _round(rng.uniform(0.01, 0.2)),
                  "extra_delay": _round(rng.uniform(0.001, 0.02))}
    elif kind == "duplicate":
        params = {"dup_prob": _round(rng.uniform(0.01, 0.1))}
    else:
        params = {"loss_prob": _round(rng.uniform(0.01, 0.1))}
    return ElementSpec(kind, params, start=start, end=end)


def _flow(rng: Random, config: FuzzConfig, duration: float,
          ccas: Tuple[str, ...]) -> FlowSpec:
    cca = rng.choice(list(ccas))
    rm = _round(rng.uniform(config.min_rm, config.max_rm))
    start_time = 0.0
    if rng.random() < 0.5:
        start_time = _round(rng.uniform(0.0, duration * 0.3), 3)
    ack_every = 1
    ack_timeout = None
    if rng.random() < 0.15:
        ack_every = rng.randint(2, 4)
        ack_timeout = _round(rng.uniform(0.02, 0.2), 3)
    burst_size = rng.randint(2, 4) if rng.random() < 0.1 else 1
    ack_elements: Tuple[ElementSpec, ...] = ()
    if rng.random() < config.ack_element_prob:
        ack_elements = (_ack_element(rng),)
    data_elements: Tuple[ElementSpec, ...] = ()
    if rng.random() < config.data_element_prob:
        data_elements = (ElementSpec(
            "constant_jitter", {"eta": _round(rng.uniform(0.0, 0.005))}),)
    if rng.random() < config.flow_fault_prob:
        data_elements += (_gated_element(rng, duration),)
    return FlowSpec(cca=CCASpec(cca), rm=rm, start_time=start_time,
                    data_elements=data_elements,
                    ack_elements=ack_elements, ack_every=ack_every,
                    ack_timeout=ack_timeout, burst_size=burst_size)


def _topology(rng: Random, config: FuzzConfig, rate: float,
              buffer_bdp: Optional[float], ecn: Optional[float],
              elements: Tuple[ElementSpec, ...]) -> TopologySpec:
    """A small parking lot whose first link is the drawn bottleneck.

    Link ``b0`` inherits the scenario's drawn rate/buffer/ECN/elements
    (so the sampled space stays centered where the dumbbell campaign
    explores); the 1-2 extra serial links draw fresh rates and an
    occasional propagation delay.
    """
    n_links = rng.randint(2, max(2, config.max_topology_links))
    links = [TopoLinkSpec(id="b0", src="n0", dst="n1", rate=rate,
                          buffer_bdp=buffer_bdp,
                          ecn_threshold_bytes=ecn, elements=elements)]
    for i in range(1, n_links):
        extra_rate = units.mbps(_round(rng.uniform(
            config.min_rate_mbps, config.max_rate_mbps), 2))
        delay = 0.0
        if rng.random() < 0.3:
            delay = _round(rng.uniform(0.0005, 0.01))
        links.append(TopoLinkSpec(id=f"b{i}", src=f"n{i}",
                                  dst=f"n{i + 1}", rate=extra_rate,
                                  delay=delay))
    nodes = tuple(NodeSpec(f"n{i}") for i in range(n_links + 1))
    return TopologySpec(nodes=nodes, links=tuple(links))


def _route_flows(rng: Random, flows: Tuple[FlowSpec, ...],
                 topology: TopologySpec) -> Tuple[FlowSpec, ...]:
    """Assign per-flow paths: mostly the long flow, sometimes one hop.

    The mix is the parking-lot competition shape — long flows crossing
    every queue (empty path = the topology's default full path) against
    short flows loading a single hop.
    """
    link_ids = topology.link_ids()
    routed = []
    for flow in flows:
        path: Tuple[str, ...] = ()
        if rng.random() < 0.4:
            path = (rng.choice(list(link_ids)),)
        routed.append(replace(flow, path=path))
    return tuple(routed)


def generate_spec(root_seed: int, index: int,
                  config: Optional[FuzzConfig] = None) -> ScenarioSpec:
    """Sample fuzz iteration ``index`` of the campaign ``root_seed``.

    Pure function of ``(root_seed, index, config)``: the same triple
    always yields the same spec, in any process, regardless of what
    other iterations ran.
    """
    config = config or DEFAULT_CONFIG
    rng = Random(derive_seed(root_seed, "fuzz", index))
    ccas = config.ccas or tuple(registry.names())
    duration = _round(rng.uniform(config.min_duration,
                                  config.max_duration), 2)
    warmup = _round(duration * 0.25, 2)
    flows = tuple(_flow(rng, config, duration, ccas)
                  for _ in range(_flow_count(rng, config)))
    buffer_bdp = None
    if rng.random() < 0.5:
        buffer_bdp = _round(rng.uniform(0.5, 8.0), 2)
    rate = units.mbps(_round(rng.uniform(config.min_rate_mbps,
                                         config.max_rate_mbps), 2))
    ecn = None
    if rng.random() < 0.1:
        # Around a fraction of a small-BDP queue so marking actually
        # happens at these rates.
        ecn = _round(rng.uniform(10_000.0, 60_000.0), 0)
    elements: Tuple[ElementSpec, ...] = ()
    if rng.random() < config.link_fault_prob:
        elements = (_gated_element(rng, duration),)
    seed = derive_seed(root_seed, "fuzz", index, "scenario")
    # Topology draws come after every dumbbell draw so the sampled
    # dumbbell parameters stay aligned across config variations.
    if rng.random() < config.topology_prob:
        topology = _topology(rng, config, rate, buffer_bdp, ecn, elements)
        return ScenarioSpec(
            topology=topology, flows=_route_flows(rng, flows, topology),
            seed=seed, duration=duration, warmup=warmup)
    link = LinkSpec(rate=rate, buffer_bdp=buffer_bdp,
                    ecn_threshold_bytes=ecn, elements=elements)
    return ScenarioSpec(
        link=link, flows=flows, seed=seed,
        duration=duration, warmup=warmup)


def describe_space(config: Optional[FuzzConfig] = None) -> str:
    """One-line summary of the sampled space (for CLI banners)."""
    config = config or DEFAULT_CONFIG
    ccas = config.ccas or tuple(registry.names())
    return (f"{len(ccas)} CCAs x 1-{config.max_flows} flows, "
            f"{config.min_rate_mbps:g}-{config.max_rate_mbps:g} Mbit/s, "
            f"Rm {config.min_rm * 1e3:g}-{config.max_rm * 1e3:g} ms, "
            f"{config.min_duration:g}-{config.max_duration:g} s runs, "
            f"P(multi-hop)={config.topology_prob:g}")
