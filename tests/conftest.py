"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import units
from repro.sim.engine import Simulator
from repro.sim.jitter import JitterElement
from repro.spec import CCASpec, FlowSpec, LinkSpec, ScenarioSpec


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def livelock(sim: Simulator) -> None:
    """Schedule a zero-delay self-rescheduling callback (never advances
    the clock) — the canonical divergent run."""
    def loop():
        sim.schedule(0.0, loop)
    sim.schedule(0.0, loop)


def flow(cca, rm, params=None, **kwargs) -> FlowSpec:
    """A flow of the registered CCA ``cca`` built with ``params``."""
    return FlowSpec(cca=CCASpec(cca, params or {}), rm=rm, **kwargs)


def run_dumbbell(flows, rate, duration, warmup=0.0, seed=0, **link):
    """Run ``flows`` over one bottleneck of ``rate`` bytes/s; ``link``
    holds the other :class:`LinkSpec` fields."""
    return ScenarioSpec(link=LinkSpec(rate=rate, **link), flows=flows,
                        seed=seed).run(duration=duration, warmup=warmup)


@pytest.fixture(scope="module")
def run():
    """One finished Vegas run, shared by the recorder and trace tests."""
    return ScenarioSpec(
        link=LinkSpec(rate=units.mbps(12)),
        flows=(FlowSpec(cca=CCASpec("vegas"), rm=units.ms(40), label="v"),),
    ).run(duration=5.0, warmup=1.0)


class SinkSpy:
    """Collects everything a pipeline delivers, with timestamps."""

    def __init__(self) -> None:
        self.items = []

    def receive(self, packet, now):
        self.items.append((now, packet))

    @property
    def times(self):
        return [t for t, _ in self.items]

    @property
    def packets(self):
        return [p for _, p in self.items]


@pytest.fixture
def spy() -> SinkSpy:
    return SinkSpy()


class ScriptedJitter(JitterElement):
    """Delays the k-th packet by the k-th value: exercises what the
    ``JitterElement`` base class alone guarantees (the ``>= 0`` check,
    the no-reordering clamp)."""

    def __init__(self, sim, sink, values) -> None:
        super().__init__(sim, sink)
        self.values = iter(values)

    def extra_delay(self, packet, now):
        return next(self.values)


def mbps(x: float) -> float:
    return units.mbps(x)


def ms(x: float) -> float:
    return units.ms(x)
