"""Path assembly helpers: fixed delay elements and element chaining.

A flow's forward path is ``sender -> [elements...] -> bottleneck ->
delay(Rm) -> receiver`` and its reverse path is ``receiver -> [elements...]
-> sender``. Elements are duck-typed sinks exposing
``receive(packet, now)``; :func:`chain` wires a list of element factories
into such a pipeline, and :func:`gated` confines one factory's element
to a time window.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..errors import ConfigurationError
from .engine import Simulator


class DelayElement:
    """Delays every packet by a fixed amount (propagation delay)."""

    def __init__(self, sim: Simulator, sink: object, delay: float) -> None:
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        self.sim = sim
        self.sink = sink
        self.delay = delay
        self.forwarded = 0

    def receive(self, packet: object, now: float) -> None:
        self.forwarded += 1
        delay = self.delay
        if delay == 0:
            self.sink.receive(packet, now)
        else:
            sim = self.sim
            release = sim.now + delay
            sim.post_at(release, self.sink.receive, packet, release)


#: An element factory takes ``(sim, sink)`` and returns an element whose
#: ``receive`` feeds ``sink`` (possibly after delay/drops).
ElementFactory = Callable[[Simulator, object], object]


def chain(sim: Simulator, factories: Optional[Sequence[ElementFactory]],
          terminal: object) -> object:
    """Build a pipeline of elements ending at ``terminal``.

    Factories are listed in traversal order: the first factory produces
    the element packets enter first. Returns the entry element (or
    ``terminal`` itself when ``factories`` is empty/None).
    """
    entry: object = terminal
    if factories:
        for factory in reversed(list(factories)):
            entry = factory(sim, entry)
    return entry


def gated(factory: ElementFactory, start: float,
          end: float) -> ElementFactory:
    """``factory``'s element, on the path only during ``[start, end)``.

    Outside the window packets bypass the element and go straight to
    its sink, so windows in one chain compose: a packet traverses every
    impairment whose window is open.
    """
    from .faults import WindowGate

    def build(sim: Simulator, sink: object) -> object:
        return WindowGate(sim, factory(sim, sink), sink, start, end)

    return build
