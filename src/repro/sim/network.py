"""Topology assembly: the live network a scenario spec describes.

A scenario is one or more bottleneck links plus a list of flows. Each
flow has its own CCA, propagation delay, optional elements on the data
and ACK paths, and receiver ACK policy — exactly the degrees of freedom
the paper's Section 3 model and Section 5 experiments exercise. The
description is :class:`repro.spec.ScenarioSpec`; :func:`build_topology`
is the one builder, wiring the spec's links and flows into queues,
element chains, hosts and recorders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Union

from .engine import Simulator
from .host import Receiver, Sender
from .invariants import InvariantSentinel
from .path import DelayElement, chain
from .queue import BottleneckQueue
from .recorder import FlowRecorder, QueueRecorder, Sampler

if TYPE_CHECKING:
    from ..spec import FlowSpec, LinkSpec, TopoLinkSpec


class BuiltFlow:
    """The live objects for one flow of a built scenario."""

    def __init__(self, flow_id: int, label: str, sender: Sender,
                 receiver: Receiver, recorder: FlowRecorder) -> None:
        self.flow_id = flow_id
        self.label = label
        self.sender = sender
        self.receiver = receiver
        self.recorder = recorder


class Scenario:
    """A built scenario ready to run.

    ``queues``/``queue_recorders`` hold every link's queue in topology
    declaration order (``link_ids``); ``queue``/``queue_recorder`` are
    the first — the designated bottleneck.
    """

    def __init__(self, sim: Simulator, flows: List[BuiltFlow],
                 queues: List[BottleneckQueue],
                 queue_recorders: List[QueueRecorder],
                 link_ids: List[str],
                 sentinel: Optional[InvariantSentinel] = None) -> None:
        self.sim = sim
        self.flows = flows
        self.queues = queues
        self.queue_recorders = queue_recorders
        self.link_ids = link_ids
        self.sentinel = sentinel

    @property
    def queue(self) -> BottleneckQueue:
        return self.queues[0]

    @property
    def queue_recorder(self) -> QueueRecorder:
        return self.queue_recorders[0]

    def run(self, duration: float, max_events: Optional[int] = None,
            wall_clock_budget: Optional[float] = None) -> None:
        """Run for ``duration`` simulated seconds.

        ``max_events``/``wall_clock_budget`` arm the engine watchdog
        (see :meth:`repro.sim.engine.Simulator.run`), raising
        :class:`repro.errors.BudgetExceededError` on divergent runs.
        """
        for flow in self.flows:
            flow.sender.start()
        self.sim.run(duration, max_events=max_events,
                     wall_clock_budget=wall_clock_budget)


def _walk_elements(entry: object, stop: object) -> List[object]:
    """Collect path elements from ``entry`` down to (excluding) ``stop``.

    Elements are duck-typed sinks linked by ``sink`` (plus
    ``impaired``/``bypass`` for window gates); the walk surfaces every
    element that owns drop/duplicate counters so the invariant sentinel
    can include them in the packet-conservation balance.
    """
    found: List[object] = []
    seen = set()
    frontier = [entry]
    while frontier:
        node = frontier.pop()
        if node is None or node is stop or id(node) in seen:
            continue
        seen.add(id(node))
        if hasattr(node, "dropped") or hasattr(node, "duplicated"):
            found.append(node)
        for attr in ("sink", "impaired", "bypass"):
            frontier.append(getattr(node, attr, None))
    return found


def build_topology(links: Union[LinkSpec, Sequence[TopoLinkSpec]],
                   flows: Sequence[FlowSpec],
                   sample_interval: float = 0.05,
                   invariants: Optional[str] = None,
                   seed: int = 0) -> Scenario:
    """Assemble the Section 3 network: serial FIFO queues + flow paths.

    ``links`` is ``ScenarioSpec.link`` — the paper's dumbbell, one link
    with id ``"bottleneck"`` and no delay of its own — or
    ``TopologySpec.links``; ``flows`` is ``ScenarioSpec.flows``. The
    spec classes have already validated both (at least one link and one
    flow, unique link ids, every path known, connected and repeat-free).

    Forward path per flow (path = links L1 .. Ln)::

        sender -> data_elements -> [L1 elements] -> L1 queue -> delay(L1)
               -> [L2 elements] -> L2 queue -> delay(L2) -> ...
               -> Ln queue -> delay(Ln) -> delay(rm) -> receiver

    Reverse path per flow::

        receiver -> ack_elements -> sender

    Each link's propagation ``delay`` applies after its queue; a flow's
    full propagation RTT ``rm`` is applied once after the final queue,
    and ACKs return instantly unless ack_elements add delay. The
    measured RTT is therefore queueing + transmission + rm + jitter,
    matching the paper's decomposition.

    An empty ``FlowSpec.path`` routes the flow over every link in
    declaration order. The first declared link is the designated
    bottleneck exposed as ``scenario.queue``; ``buffer_bdp`` is a
    multiple of its rate times the first flow's ``rm``.

    ``seed`` is the scenario's root seed. Every CCA and element seed
    derives from it by position (the tree in :mod:`repro.spec.scenario`)
    unless the component's params pin one; a flow without a label is
    ``"{cca}#{i}"``.

    ``invariants`` selects the runtime sentinel mode (``off`` | ``warn``
    | ``strict``); ``None`` resolves from the ``REPRO_INVARIANTS``
    environment variable (default ``warn``). The sentinel observes the
    built components without scheduling events, so enabling it is
    bit-invisible to traces and summaries.
    """
    from ..spec.seeds import derive_seed  # spec.scenario imports sim

    def elements(specs: Sequence[Any], *seed_path: Any) -> List[Any]:
        return [spec.factory(derive_seed(seed, *seed_path, j))
                for j, spec in enumerate(specs)]

    if isinstance(links, (list, tuple)):
        hops = [(lk.id, lk, lk.delay, ("link", lk.id)) for lk in links]
    else:
        hops = [("bottleneck", links, 0.0, ("link",))]
    link_ids = [hop[0] for hop in hops]
    sim = Simulator()
    sentinel = InvariantSentinel(mode=invariants)
    first_rm = flows[0].rm
    queues: dict = {}
    delays: dict = {}
    # Per-link shared elements: one chain seen by every flow that
    # crosses the link; ``entries`` maps link id -> chain entry point.
    entries: dict = {}
    for link_id, lk, delay, seed_path in hops:
        buffer_bytes = lk.buffer_bytes
        if lk.buffer_bdp is not None:
            buffer_bytes = lk.buffer_bdp * lk.rate * first_rm
        queue = BottleneckQueue(sim, lk.rate, buffer_bytes=buffer_bytes,
                                ecn_threshold_bytes=lk.ecn_threshold_bytes)
        queues[link_id] = queue
        delays[link_id] = delay
        entries[link_id] = chain(sim, elements(lk.elements, *seed_path),
                                 queue)
    built: List[BuiltFlow] = []
    # Per-flow chains share the link's elements; dedupe by identity
    # so the conservation balance counts each drop source exactly once.
    registered_elements: set = set()
    for flow_id, flow in enumerate(flows):
        path = flow.path or link_ids
        cca = flow.cca.create(derive_seed(seed, "flow", flow_id, "cca"))
        sender = Sender(sim, flow_id, cca, mss=flow.mss,
                        start_time=flow.start_time,
                        burst_size=flow.burst_size)
        receiver = Receiver(sim, flow_id, ack_every=flow.ack_every,
                            ack_timeout=flow.ack_timeout)
        # Reverse path: receiver -> ack elements -> sender.
        ack_entry = chain(
            sim, elements(flow.ack_elements, "flow", flow_id, "ack"), sender)
        receiver.attach_ack_path(ack_entry)
        # Forward path, wired back-to-front: the last queue routes this
        # flow to the receiver rm later; each hop's queue routes it to
        # the next hop's entry. A queue posts its link's delay itself,
        # so rm behind a delayed link is a DelayElement.
        downstream: object = receiver
        delay = flow.rm
        for link_id in reversed(path):
            if delays[link_id] > 0:
                if delay > 0:
                    downstream = DelayElement(sim, downstream, delay)
                delay = delays[link_id]
            queues[link_id].register_sink(flow_id, downstream, delay)
            downstream, delay = entries[link_id], 0.0
        # Forward path before the first queue:
        #   data elements -> the link's shared elements -> queue.
        data_entry = chain(
            sim, elements(flow.data_elements, "flow", flow_id, "data"),
            downstream)
        sender.attach_path(data_entry)
        recorder = FlowRecorder(sender, receiver=receiver,
                                sample_interval=sample_interval)
        label = flow.label or f"{flow.cca.name}#{flow_id}"
        built.append(BuiltFlow(flow_id, label, sender, receiver, recorder))
        if sentinel.active:
            sentinel.register_flow(sender, receiver, recorder)
            # Data path only: what an ACK-path element drops or
            # duplicates is an ACK, and the balance counts packets.
            for element in _walk_elements(data_entry, queues[path[0]]):
                if id(element) not in registered_elements:
                    registered_elements.add(id(element))
                    sentinel.register_element(element)
    queue_recorders = [QueueRecorder(queues[link_id],
                                     sample_interval=sample_interval)
                       for link_id in link_ids]
    Sampler(sim, sample_interval,
            [flow.recorder for flow in built] + queue_recorders)
    if sentinel.active:
        for link_id, recorder in zip(link_ids, queue_recorders):
            sentinel.register_queue(queues[link_id], recorder)
            # Element chains fronting downstream links sit between queues,
            # out of reach of the per-flow data-path walks above.
            for element in _walk_elements(entries[link_id],
                                          queues[link_id]):
                if id(element) not in registered_elements:
                    registered_elements.add(id(element))
                    sentinel.register_element(element)
        sentinel.attach(sim)
    return Scenario(sim, built,
                    [queues[link_id] for link_id in link_ids],
                    queue_recorders, link_ids, sentinel=sentinel)
