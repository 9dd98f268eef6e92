"""Property-based tests (hypothesis) on core invariants.

These target the data structures and constructions whose correctness the
paper's results lean on: FIFO/no-reorder invariants, windowed filters,
the Equation 5 feasibility algebra, fairness metrics, and rate-delay map
inverses.
"""


import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.emulation import build_emulation_plan
from repro.core.fairness import jain_index, throughput_ratio
from repro.core.ratedelay import ExponentialMap, VegasFamilyMap
from repro.model.fluid import Trajectory
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queue import BottleneckQueue

from .conftest import ScriptedJitter

RM = 0.05


class Collector:
    def __init__(self):
        self.items = []

    def receive(self, packet, now):
        self.items.append((now, packet))


# ---------------------------------------------------------------------------
# FIFO queue invariants
# ---------------------------------------------------------------------------

@given(sizes=st.lists(st.integers(min_value=40, max_value=9000),
                      min_size=1, max_size=40),
       rate=st.floats(min_value=1e4, max_value=1e8))
@settings(max_examples=60, deadline=None)
def test_queue_work_conservation(sizes, rate):
    """Total service time equals total bytes / rate; order preserved."""
    sim = Simulator()
    sink = Collector()
    queue = BottleneckQueue(sim, rate)
    queue.register_sink(0, sink)
    for i, size in enumerate(sizes):
        queue.receive(Packet(0, i, size, 0.0), 0.0)
    sim.run_all()
    assert [p.seq for _, p in sink.items] == list(range(len(sizes)))
    assert sink.items[-1][0] == pytest.approx(sum(sizes) / rate)


@given(sizes=st.lists(st.integers(min_value=100, max_value=2000),
                      min_size=1, max_size=30),
       buffer_packets=st.integers(min_value=1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_droptail_never_exceeds_buffer(sizes, buffer_packets):
    sim = Simulator()
    sink = Collector()
    capacity = buffer_packets * 2000
    queue = BottleneckQueue(sim, 1e5, buffer_bytes=capacity)
    queue.register_sink(0, sink)
    for i, size in enumerate(sizes):
        queue.receive(Packet(0, i, size, 0.0), 0.0)
        assert queue.queued_bytes <= capacity
    sim.run_all()
    assert len(sink.items) + queue.drops == len(sizes)


# ---------------------------------------------------------------------------
# Jitter element invariants (the Section 3 model's no-reorder rule)
# ---------------------------------------------------------------------------

@given(etas=st.lists(st.floats(min_value=0.0, max_value=0.1),
                     min_size=2, max_size=30),
       gap=st.floats(min_value=1e-4, max_value=0.01))
@settings(max_examples=60, deadline=None)
def test_jitter_never_reorders_and_respects_bound(etas, gap):
    sim = Simulator()
    sink = Collector()
    element = ScriptedJitter(sim, sink, etas)
    for i in range(len(etas)):
        sim.schedule_at(i * gap, element.receive, Packet(0, i, 1500, 0.0),
                        i * gap)
    sim.run_all()
    seqs = [p.seq for _, p in sink.items]
    times = [t for t, _ in sink.items]
    assert seqs == sorted(seqs)
    assert times == sorted(times)
    # Applied delay never exceeds the bound plus queueing from the
    # no-reorder clamp (which is itself bounded by the max eta).
    for (t, p) in sink.items:
        assert t - p.seq * gap <= 0.1 + 0.1 + 1e-9


# ---------------------------------------------------------------------------
# Fairness metrics
# ---------------------------------------------------------------------------

@given(xs=st.lists(st.floats(min_value=1e-6, max_value=1e9),
                   min_size=1, max_size=10))
@settings(max_examples=100)
def test_jain_index_bounds(xs):
    index = jain_index(xs)
    assert 1.0 / len(xs) - 1e-9 <= index <= 1.0 + 1e-9


@given(xs=st.lists(st.floats(min_value=1e-6, max_value=1e9),
                   min_size=2, max_size=10),
       scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100)
def test_fairness_metrics_scale_invariant(xs, scale):
    scaled = [x * scale for x in xs]
    assert jain_index(scaled) == pytest.approx(jain_index(xs), rel=1e-6)
    assert throughput_ratio(scaled) == pytest.approx(
        throughput_ratio(xs), rel=1e-6)


@given(xs=st.lists(st.floats(min_value=1e-3, max_value=1e6),
                   min_size=2, max_size=8))
@settings(max_examples=100)
def test_throughput_ratio_at_least_one(xs):
    assert throughput_ratio(xs) >= 1.0


# ---------------------------------------------------------------------------
# Rate-delay maps
# ---------------------------------------------------------------------------

@given(rate=st.floats(min_value=1e3, max_value=1e9),
       alpha=st.floats(min_value=100, max_value=1e5))
@settings(max_examples=100)
def test_vegas_map_inverse(rate, alpha):
    vegas = VegasFamilyMap(alpha=alpha, offset=RM)
    assert vegas.rate(vegas.delay(rate)) == pytest.approx(rate, rel=1e-9)


@given(rate=st.floats(min_value=2e5, max_value=5e6),
       s=st.floats(min_value=1.1, max_value=8.0),
       d=st.floats(min_value=1e-3, max_value=0.05))
@settings(max_examples=100)
def test_exponential_map_inverse_and_band_property(rate, s, d):
    exp_map = ExponentialMap(mu_minus=1e5, s=s, r_max=0.3,
                             jitter_bound=d, rm=RM)
    assert exp_map.rate(exp_map.delay(rate)) == pytest.approx(
        rate, rel=1e-9)
    # Moving one D down in delay multiplies the rate by exactly s.
    delay = exp_map.delay(rate)
    assert exp_map.rate(delay - d) == pytest.approx(rate * s, rel=1e-9)


# ---------------------------------------------------------------------------
# Equation 5 feasibility algebra
# ---------------------------------------------------------------------------

@given(
    data=st.data(),
    c1=st.floats(min_value=1e5, max_value=1e7),
    ratio=st.floats(min_value=2.0, max_value=50.0),
    slack=st.floats(min_value=1e-4, max_value=5e-3),
    base_queueing=st.floats(min_value=6e-3, max_value=0.05),
)
@settings(max_examples=40, deadline=None)
def test_emulation_feasible_whenever_premises_hold(data, c1, ratio,
                                                   slack, base_queueing):
    """Theorem 1's feasibility: if both post-convergence delay
    trajectories stay within one slack-wide interval located above
    Rm + slack, the Equation 5 plan always satisfies 0 <= eta <= D with
    D = 2*slack."""
    n = 200
    c2 = c1 * ratio
    base = RM + base_queueing
    assume(base_queueing > slack)  # Case 1 premise
    offsets1 = data.draw(st.lists(
        st.floats(min_value=0.0, max_value=slack),
        min_size=n, max_size=n))
    offsets2 = data.draw(st.lists(
        st.floats(min_value=0.0, max_value=slack),
        min_size=n, max_size=n))
    traj1 = Trajectory(times=np.arange(n) * 1e-3,
                       delays=base + np.array(offsets1),
                       rates=np.full(n, c1), link_rate=c1, rm=RM, dt=1e-3)
    traj2 = Trajectory(times=np.arange(n) * 1e-3,
                       delays=base + np.array(offsets2),
                       rates=np.full(n, c2), link_rate=c2, rm=RM, dt=1e-3)
    plan = build_emulation_plan(traj1, traj2, 0.0, 0.0,
                                delta_max=slack, epsilon=0.0,
                                jitter_bound=2 * slack)
    assert plan.min_eta >= -1e-12
    assert plan.max_eta <= 2 * slack + 1e-12
    assert plan.initial_queue_delay >= -1e-12


# ---------------------------------------------------------------------------
# Explorer determinism
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=20, deadline=None)
def test_explorer_rollouts_deterministic_per_seed(seed):
    from repro.model.cca import FluidAimd
    from repro.model.explorer import (NetParams, guided_search,
                                      unfairness_objective)
    net = NetParams(link_rate=1.5e6, rm=0.05, jitter_bound=0.02,
                    buffer_bytes=30 * 1500)
    flows = [FluidAimd(threshold=math.inf), FluidAimd(threshold=math.inf)]
    r1 = guided_search(flows, net, 8, unfairness_objective, rollouts=5,
                       seed=seed)
    r2 = guided_search(flows, net, 8, unfairness_objective, rollouts=5,
                       seed=seed)
    assert r1.best_objective == r2.best_objective


# ---------------------------------------------------------------------------
# Fluid model conservation
# ---------------------------------------------------------------------------

@given(rate_fracs=st.lists(st.floats(min_value=0.1, max_value=3.0),
                           min_size=1, max_size=4),
       rm=st.floats(min_value=0.005, max_value=0.2))
@settings(max_examples=40, deadline=None)
def test_fluid_queue_delay_never_below_rm(rate_fracs, rm):
    from repro.model.fluid import run_shared_queue
    from repro.spec import ElementSpec

    class Fixed:
        def __init__(self, rate):
            self.rate = rate

        def initial_rate(self):
            return self.rate

        def step(self, t, dt, observed_rtt):
            return self.rate

    link = 1e6
    ccas = [Fixed(frac * link / len(rate_fracs))
            for frac in rate_fracs]
    result = run_shared_queue(ccas, link_rate=link, rm=rm, duration=1.0,
                              etas=[ElementSpec("no_jitter")] * len(ccas),
                              dt=1e-3)
    assert (result.shared_delay >= rm - 1e-12).all()
    # Queue growth never exceeds (total arrival - drain) integrated.
    total = sum(c.rate for c in ccas)
    max_possible = rm + max(0.0, (total - link) / link) * 1.0 + 1e-9
    assert result.shared_delay[-1] <= max_possible


@given(seed=st.integers(min_value=0, max_value=10_000),
       steps=st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_explorer_delivery_never_exceeds_capacity(seed, steps):
    import random as _random
    from repro.model.cca import FluidAimd
    from repro.model.explorer import NetParams, TraceStep, simulate_trace
    rng = _random.Random(seed)
    net = NetParams(link_rate=1.5e6, rm=0.05, jitter_bound=0.02,
                    buffer_bytes=40 * 1500)
    trace = [TraceStep(jitters=(rng.choice([0.0, 0.02]),
                                rng.choice([0.0, 0.02])),
                       losses=(False, False))
             for _ in range(steps)]
    result = simulate_trace([FluidAimd(threshold=math.inf),
                             FluidAimd(threshold=math.inf)], net, trace)
    capacity = net.link_rate * net.rm * steps
    assert sum(result.delivered) <= capacity + 1e-6
    assert all(d >= 0 for d in result.delivered)
    assert all(0 <= q <= 40 * 1500 + 1e-9 for q in result.queue_history)


# ---------------------------------------------------------------------------
# Receiver ACK aggregation conservation
# ---------------------------------------------------------------------------

@given(ack_every=st.integers(min_value=1, max_value=8),
       n_packets=st.integers(min_value=1, max_value=60))
@settings(max_examples=40, deadline=None)
def test_delayed_acks_cover_every_packet_exactly_once(ack_every,
                                                      n_packets):
    from repro.sim.host import Receiver
    from repro.sim.packet import Packet

    sim = Simulator()
    received = []

    class AckSink:
        def receive(self, ack, now):
            received.append(ack)

    receiver = Receiver(sim, 0, ack_every=ack_every, ack_timeout=0.04)
    receiver.attach_ack_path(AckSink())
    for i in range(n_packets):
        sim.schedule_at(i * 0.001, receiver.receive,
                        Packet(0, i, 1500, 0.0), i * 0.001)
    sim.run_all()
    covered = [seq for ack in received for seq in ack.acked_seqs]
    assert sorted(covered) == list(range(n_packets))
    assert sum(ack.acked_bytes for ack in received) == n_packets * 1500
