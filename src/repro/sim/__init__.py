"""Packet-level discrete-event network simulator (Mahimahi substitute).

Implements the paper's Section 3 network model: shared FIFO queues
drained at a constant rate, per-flow propagation delay, and per-flow
bounded non-congestive jitter elements that never reorder.
:func:`build_topology` is the one builder; it wires a
:class:`repro.spec.ScenarioSpec`'s links and flows, and
``ScenarioSpec.run`` is the one build-run-summarize call.
"""

from .engine import Event, Simulator
from .host import Receiver, Sender
from .invariants import (InvariantSentinel, InvariantWarning, override_mode,
                         resolve_mode)
from .network import Scenario, build_topology
from .packet import Ack, AckInfo, Packet
from .queue import BottleneckQueue
from .runner import FlowStats, RunResult

__all__ = [
    "Ack", "AckInfo", "BottleneckQueue", "Event", "FlowStats",
    "InvariantSentinel", "InvariantWarning", "Packet", "Receiver",
    "RunResult", "Scenario", "Sender", "Simulator", "build_topology",
    "override_mode", "resolve_mode",
]
