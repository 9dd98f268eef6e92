"""The bottleneck: a byte-based FIFO queue drained at a constant rate.

This is the single shared queue of the paper's Section 3 network model.
All flows enqueue into the same FIFO; packets are dequeued at ``rate``
bytes per second and forwarded to a per-flow downstream sink. The queue
is droptail with a configurable byte capacity (``None`` = unbounded, the
"large enough to never overflow" queue the delay-convergence definition
assumes).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..errors import ConfigurationError
from .engine import Simulator
from .packet import Packet


class BottleneckQueue:
    """Constant-rate FIFO bottleneck with droptail buffering.

    Args:
        sim: the simulation engine.
        rate: drain rate in bytes per second.
        buffer_bytes: droptail capacity of the *waiting room* in bytes
            (the packet in service does not count). ``None`` disables
            drops entirely.
        on_drop: optional callback ``(packet, now)`` invoked on tail drop.

    Downstream routing: each flow registers a sink via
    :meth:`register_sink`; dequeued packets are forwarded to the sink for
    ``packet.flow_id``, after the link's propagation delay if it has one.
    """

    def __init__(self, sim: Simulator, rate: float,
                 buffer_bytes: Optional[float] = None,
                 on_drop: Optional[Callable[[Packet, float], None]] = None,
                 ecn_threshold_bytes: Optional[float] = None) -> None:
        if rate <= 0:
            raise ConfigurationError(f"bottleneck rate must be > 0, got {rate}")
        if buffer_bytes is not None and buffer_bytes <= 0:
            raise ConfigurationError(
                f"buffer must be > 0 bytes or None, got {buffer_bytes}")
        self.sim = sim
        self.rate = rate
        self.buffer_bytes = buffer_bytes
        self.on_drop = on_drop
        # Section 6.4: DCTCP-style threshold marking at dequeue. ECN is
        # an unambiguous congestion signal (unlike delay and loss).
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.ecn_marks = 0
        self._sinks: Dict[int, Tuple[Callable, float]] = {}
        self._queue: Deque[Packet] = deque()
        self._queued_bytes: float = 0.0
        self._busy = False
        self._in_service: Optional[Packet] = None
        self.arrived: int = 0
        self.drops: int = 0
        self.dropped_bytes: float = 0.0
        self.forwarded: int = 0
        self.forwarded_bytes: float = 0.0

    def register_sink(self, flow_id: int, sink: object,
                      delay: float = 0.0) -> None:
        """Route dequeued packets of ``flow_id`` to ``sink.receive``,
        ``delay`` seconds after they leave (as a ``DelayElement`` would,
        with one frame less per packet)."""
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        self._sinks[flow_id] = (sink.receive, delay)

    @property
    def queued_bytes(self) -> float:
        """Bytes waiting (not counting the packet in service)."""
        return self._queued_bytes

    @property
    def backlog_bytes(self) -> float:
        """Bytes waiting plus the packet currently in service."""
        backlog = self._queued_bytes
        if self._in_service is not None:
            backlog += self._in_service.size
        return backlog

    def receive(self, packet: Packet, now: float) -> None:
        """Enqueue a packet, dropping it if the buffer is full."""
        self.arrived += 1
        if (self.buffer_bytes is not None
                and self._queued_bytes + packet.size > self.buffer_bytes):
            self.drops += 1
            self.dropped_bytes += packet.size
            if self.on_drop is not None:
                self.on_drop(packet, now)
            return
        self._queue.append(packet)
        self._queued_bytes += packet.size
        if not self._busy:
            self._start_service()

    def _start_service(self) -> None:
        packet = self._queue.popleft()
        self._queued_bytes -= packet.size
        self._in_service = packet
        self._busy = True
        transmission_time = packet.size / self.rate
        self.sim.post(transmission_time, self._finish_service)

    def _finish_service(self) -> None:
        packet = self._in_service
        assert packet is not None
        self._in_service = None
        size = packet.size
        if (self.ecn_threshold_bytes is not None
                and self._queued_bytes > self.ecn_threshold_bytes):
            packet.ecn_marked = True
            self.ecn_marks += 1
        self.forwarded += 1
        self.forwarded_bytes += size
        route = self._sinks.get(packet.flow_id)
        if route is not None:
            receive, delay = route
            if delay == 0:
                receive(packet, self.sim.now)
            else:
                release = self.sim.now + delay
                self.sim.post_at(release, receive, packet, release)
        # Inline the next _start_service: this dequeue-forward-rearm
        # sequence runs once per packet and the extra call was visible
        # in profiles.
        queue = self._queue
        if queue:
            nxt = queue.popleft()
            self._queued_bytes -= nxt.size
            self._in_service = nxt
            self.sim.post(nxt.size / self.rate, self._finish_service)
        else:
            self._busy = False

    # ------------------------------------------------------------------
    # Invariant sentinel hook (see repro.sim.invariants)
    # ------------------------------------------------------------------

    def invariant_errors(self):
        """Yield (kind, site, message) for violated queue invariants."""
        errors = []
        queued = self._queued_bytes
        if queued < -1e-6:
            errors.append((
                "sanity", "occupancy_negative",
                f"queued_bytes is negative: {queued}"))
        if self.buffer_bytes is not None and queued > self.buffer_bytes + 1e-6:
            errors.append((
                "sanity", "occupancy",
                f"queued_bytes={queued} exceeds buffer capacity "
                f"{self.buffer_bytes}"))
        if self._busy and self._in_service is None:
            errors.append((
                "sanity", "service",
                "queue marked busy with no packet in service"))
        # Per-queue packet conservation: every arrival is either still
        # waiting, in service, forwarded downstream, or tail-dropped.
        # On a multi-hop path this pins down *which* queue leaked a
        # packet, where the end-to-end flow balance only says one did.
        accounted = (self.forwarded + self.drops + len(self._queue)
                     + (1 if self._in_service is not None else 0))
        if accounted != self.arrived:
            errors.append((
                "conservation", "queue_balance",
                f"arrived={self.arrived} but forwarded={self.forwarded} "
                f"+ drops={self.drops} + queued={len(self._queue)} "
                f"+ in_service={1 if self._in_service is not None else 0} "
                f"= {accounted}"))
        return errors
