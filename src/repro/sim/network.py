"""Scenario description and topology assembly.

A scenario is one or more bottleneck links plus a list of flows. Each
flow has its own CCA, propagation delay, optional jitter elements on
the data and ACK paths, optional loss element, and receiver ACK policy
— exactly the degrees of freedom the paper's Section 3 model and
Section 5 experiments exercise.

:func:`build_topology` is the one builder: an ordered list of
:class:`TopologyLink` (each a :class:`BottleneckQueue` plus optional
propagation delay and element chain) with per-flow paths as link-id
sequences. The paper's dumbbell is the one-link case,
``build_topology(dumbbell_links(LinkConfig(...)), flows)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..errors import ConfigurationError
from .engine import Simulator
from .host import Receiver, Sender
from .invariants import InvariantSentinel
from .path import DelayElement, ElementFactory, chain
from .queue import BottleneckQueue
from .recorder import FlowRecorder, QueueRecorder


@dataclass
class LinkConfig:
    """The shared bottleneck.

    Args:
        rate: drain rate in bytes/s.
        buffer_bytes: droptail capacity (None = effectively unbounded).
        buffer_bdp: alternative capacity spec as a multiple of the BDP of
            the *first* flow (rate x rm); mutually exclusive with
            buffer_bytes.
        elements: element factories chained in front of the queue —
            one shared chain that *every* flow crossing the link meets
            (unlike per-flow ``FlowConfig.data_elements``).
    """

    rate: float
    buffer_bytes: Optional[float] = None
    buffer_bdp: Optional[float] = None
    #: DCTCP-style marking threshold (bytes of backlog); None = no ECN.
    ecn_threshold_bytes: Optional[float] = None
    elements: Sequence[ElementFactory] = ()

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(
                f"link rate must be > 0 bytes/s, got {self.rate}")
        if self.buffer_bytes is not None and self.buffer_bytes <= 0:
            raise ConfigurationError(
                f"buffer_bytes must be > 0, got {self.buffer_bytes}")
        if self.buffer_bdp is not None and self.buffer_bdp <= 0:
            raise ConfigurationError(
                f"buffer_bdp must be > 0, got {self.buffer_bdp}")

    def resolve_buffer(self, rm: float) -> Optional[float]:
        if self.buffer_bytes is not None and self.buffer_bdp is not None:
            raise ConfigurationError(
                "specify buffer_bytes or buffer_bdp, not both")
        if self.buffer_bdp is not None:
            return self.buffer_bdp * self.rate * rm
        return self.buffer_bytes


@dataclass
class FlowConfig:
    """One flow in the scenario.

    Args:
        cca_factory: zero-argument callable producing a fresh CCA.
        rm: minimum propagation RTT for this flow, seconds.
        start_time: when the flow starts.
        mss: packet size in bytes.
        data_elements: element factories inserted between the sender and
            the bottleneck (e.g. loss elements, gated outages).
        ack_elements: element factories on the ACK return path (e.g.
            jitter / ACK aggregation).
        ack_every / ack_timeout: receiver delayed-ACK policy.
        label: display name for reports.
    """

    cca_factory: Callable[[], object]
    rm: float
    start_time: float = 0.0
    mss: int = 1500
    data_elements: Sequence[ElementFactory] = field(default_factory=tuple)
    ack_elements: Sequence[ElementFactory] = field(default_factory=tuple)
    ack_every: int = 1
    ack_timeout: Optional[float] = None
    #: GSO-style batching: release packets in bursts of this many.
    burst_size: int = 1
    label: str = ""
    #: Ordered link ids this flow traverses (topology scenarios only);
    #: None = every link in declaration order (or the single dumbbell
    #: bottleneck).
    path: Optional[Sequence[str]] = None

    def __post_init__(self) -> None:
        if self.rm <= 0:
            raise ConfigurationError(f"rm must be > 0, got {self.rm}")
        if self.mss <= 0:
            raise ConfigurationError(f"mss must be > 0, got {self.mss}")
        if self.start_time < 0:
            raise ConfigurationError(
                f"start_time must be >= 0, got {self.start_time}")


@dataclass
class TopologyLink:
    """One directed link of a topology: a queue config plus delay.

    ``delay`` is the link's propagation delay, applied after its queue
    on the forward path (the flow's own ``rm`` is still applied once,
    after the last queue, exactly like the dumbbell).
    """

    link_id: str
    config: LinkConfig
    delay: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.link_id, str) or not self.link_id:
            raise ConfigurationError(
                f"topology link needs a non-empty id, got "
                f"{self.link_id!r}")
        if self.delay < 0:
            raise ConfigurationError(
                f"link delay must be >= 0, got {self.delay}")


class BuiltFlow:
    """The live objects for one flow of a built scenario."""

    def __init__(self, flow_id: int, config: FlowConfig, sender: Sender,
                 receiver: Receiver, recorder: FlowRecorder) -> None:
        self.flow_id = flow_id
        self.config = config
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


def dumbbell_links(link: LinkConfig) -> List[TopologyLink]:
    """The dumbbell as the one-link topology it is."""
    return [TopologyLink("bottleneck", link)]


def build_topology(links: Sequence[TopologyLink],
                   flows: Sequence[FlowConfig],
                   sample_interval: float = 0.05,
                   invariants: Optional[str] = None) -> Scenario:
    """Assemble the Section 3 network: serial FIFO queues + flow paths.

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
    matching the paper's decomposition. A one-link topology with zero
    link delay (:func:`dumbbell_links`) adds no elements of its own.

    ``FlowConfig.path`` names the traversed link ids in order; ``None``
    routes the flow over every link in declaration order. The first
    declared link is the designated bottleneck exposed as
    ``scenario.queue``.

    ``invariants`` selects the runtime sentinel mode (``off`` | ``warn``
    | ``strict``); ``None`` resolves from the ``REPRO_INVARIANTS``
    environment variable (default ``warn``). The sentinel observes the
    built components without scheduling events, so enabling it is
    bit-invisible to traces and summaries.
    """
    if not links:
        raise ConfigurationError("topology needs at least one link")
    if not flows:
        raise ConfigurationError("scenario needs at least one flow")
    link_ids = [lk.link_id for lk in links]
    if len(set(link_ids)) != len(link_ids):
        raise ConfigurationError(
            f"duplicate topology link ids: {link_ids}")
    sim = Simulator()
    sentinel = InvariantSentinel(mode=invariants)
    first_rm = flows[0].rm
    queues: dict = {}
    # Per-link shared elements: one chain seen by every flow that
    # crosses the link; ``entries`` maps link id -> chain entry point.
    entries: dict = {}
    for lk in links:
        link = lk.config
        queue = BottleneckQueue(sim, link.rate,
                                buffer_bytes=link.resolve_buffer(first_rm),
                                ecn_threshold_bytes=link.ecn_threshold_bytes)
        queues[lk.link_id] = queue
        entries[lk.link_id] = chain(sim, link.elements, queue)
    built: List[BuiltFlow] = []
    # Per-flow chains share the link's elements; dedupe by identity
    # so the conservation balance counts each drop source exactly once.
    registered_elements: set = set()
    for flow_id, config in enumerate(flows):
        path = list(config.path) if config.path else list(link_ids)
        for link_id in path:
            if link_id not in queues:
                raise ConfigurationError(
                    f"flow {flow_id} path names unknown link "
                    f"{link_id!r} (known: {link_ids})")
        if len(set(path)) != len(path):
            raise ConfigurationError(
                f"flow {flow_id} path repeats a link: {path}")
        cca = config.cca_factory()
        sender = Sender(sim, flow_id, cca, mss=config.mss,
                        start_time=config.start_time,
                        burst_size=config.burst_size)
        receiver = Receiver(sim, flow_id, ack_every=config.ack_every,
                            ack_timeout=config.ack_timeout)
        # Reverse path: receiver -> ack elements -> sender.
        ack_entry = chain(sim, config.ack_elements, sender)
        receiver.attach_ack_path(ack_entry)
        # Forward path, wired back-to-front: after the last queue comes
        # delay(rm) -> receiver; each hop's queue routes this flow to
        # the next hop's entry (through the hop's own delay, if any).
        downstream: object = DelayElement(sim, receiver, config.rm)
        for link_id in reversed(path):
            lk = links[link_ids.index(link_id)]
            sink: object = downstream
            if lk.delay > 0:
                sink = DelayElement(sim, downstream, lk.delay)
            queues[link_id].register_sink(flow_id, sink)
            downstream = entries[link_id]
        # Forward path before the first queue:
        #   data elements -> the link's shared elements -> queue.
        data_entry = chain(sim, config.data_elements, downstream)
        sender.attach_path(data_entry)
        recorder = FlowRecorder(sim, sender, receiver=receiver,
                                sample_interval=sample_interval)
        built.append(BuiltFlow(flow_id, config, sender, receiver, recorder))
        if sentinel.active:
            sentinel.register_flow(sender, receiver, recorder)
            # Data path only: what an ACK-path element drops or
            # duplicates is an ACK, and the balance counts packets.
            for element in _walk_elements(data_entry, queues[path[0]]):
                if id(element) not in registered_elements:
                    registered_elements.add(id(element))
                    sentinel.register_element(element)
    queue_recorders = [QueueRecorder(sim, queues[link_id],
                                     sample_interval=sample_interval)
                       for link_id in link_ids]
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
