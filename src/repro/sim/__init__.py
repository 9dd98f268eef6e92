"""Packet-level discrete-event network simulator (Mahimahi substitute).

Implements the paper's Section 3 network model: shared FIFO queues
drained at a constant rate, per-flow propagation delay, and per-flow
bounded non-congestive jitter elements that never reorder.
:func:`build_topology` is the one builder and :func:`run` the one
build-run-summarize function.
"""

from .engine import Event, Simulator
from .faults import (BlackoutElement, DuplicateElement,
                     GilbertElliottLossElement, LinkFlapElement,
                     ReorderElement)
from .host import Receiver, Sender
from .invariants import (InvariantSentinel, InvariantWarning, override_mode,
                         resolve_mode)
from .network import (FlowConfig, LinkConfig, Scenario, TopologyLink,
                      build_topology, dumbbell_links)
from .packet import Ack, AckInfo, Packet
from .queue import BottleneckQueue
from .runner import FlowStats, RunResult, run

__all__ = [
    "Ack", "AckInfo", "BlackoutElement", "BottleneckQueue",
    "DuplicateElement", "Event", "FlowConfig", "FlowStats",
    "GilbertElliottLossElement", "InvariantSentinel", "InvariantWarning",
    "LinkConfig", "LinkFlapElement", "Packet", "Receiver", "ReorderElement",
    "RunResult", "Scenario", "Sender", "Simulator", "TopologyLink",
    "build_topology", "dumbbell_links", "override_mode", "resolve_mode",
    "run",
]
