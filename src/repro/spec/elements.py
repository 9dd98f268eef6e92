"""Declarative path-element and fault-schedule specifications.

Scenario descriptions used to embed live ``ElementFactory`` lambdas
(closures over a Simulator-to-be), which cannot be serialized or sent to
a worker process. This module replaces them with pure data:

* :class:`ElementSpec` — ``(kind, params)`` naming one jitter/loss/delay
  element from the catalog below; :meth:`ElementSpec.factory` turns it
  back into the ``(sim, sink) -> element`` callable the build layer
  expects.
* :class:`FaultWindowSpec` / :class:`FaultScheduleSpec` — the
  declarative mirror of :class:`repro.sim.faults.FaultSchedule`'s
  fluent helpers; :meth:`FaultScheduleSpec.build` reconstructs the live
  schedule.

Both are JSON-round-trippable: params are normalized through JSON on
construction, so a spec that travelled through ``json.dumps`` /
``json.loads`` compares equal to the original.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, SpecValidationError
from ..sim.faults import FaultSchedule
from ..sim.jitter import (AckAggregationJitter, ConstantJitter,
                          ExemptFirstJitter, NoJitter, SquareWaveJitter,
                          StepTraceJitter, TokenBucketJitter)
from ..sim.loss import (PeriodicLossElement, RandomLossElement,
                        TargetedLossElement)
from ..sim.path import DelayElement, ElementFactory


@dataclass(frozen=True)
class ElementEntry:
    """Catalog row: element class plus whether it takes a ``seed``."""

    cls: type
    seeded: bool = False


#: Every path element a spec may name. Keys are the JSON ``kind``.
ELEMENTS: Dict[str, ElementEntry] = {
    "delay": ElementEntry(DelayElement),
    "no_jitter": ElementEntry(NoJitter),
    "constant_jitter": ElementEntry(ConstantJitter),
    "exempt_first_jitter": ElementEntry(ExemptFirstJitter),
    "ack_aggregation": ElementEntry(AckAggregationJitter),
    "square_wave_jitter": ElementEntry(SquareWaveJitter),
    "step_trace_jitter": ElementEntry(StepTraceJitter),
    "token_bucket": ElementEntry(TokenBucketJitter),
    "random_loss": ElementEntry(RandomLossElement, seeded=True),
    "periodic_loss": ElementEntry(PeriodicLossElement),
    "targeted_loss": ElementEntry(TargetedLossElement),
}


def _check_number(name: str, value: Any, *, positive: bool = False,
                  allow_none: bool = False) -> None:
    """Reject NaN/Inf/non-numeric (and optionally non-positive) values.

    Every ``FlowSpec``/``LinkSpec``/``TopoLinkSpec``/``ScenarioSpec``
    field that feeds a rate, delay, buffer or duration goes through
    here, so a malformed spec — hand-written JSON, a buggy generator, a
    corrupted file — fails at construction with a typed
    :class:`SpecValidationError` instead of building a simulation that
    silently misbehaves mid-run. Note that naive ``value <= 0``
    comparisons let NaN through (every comparison with NaN is False),
    which is exactly the hole this closes.
    """
    if value is None:
        if allow_none:
            return
        raise SpecValidationError(f"{name} must be a number, got None")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(
            f"{name} must be a number, got {value!r}")
    if math.isnan(value) or math.isinf(value):
        raise SpecValidationError(
            f"{name} must be finite, got {value!r}")
    if positive and value <= 0:
        raise SpecValidationError(f"{name} must be > 0, got {value!r}")
    elif not positive and value < 0:
        raise SpecValidationError(f"{name} must be >= 0, got {value!r}")


def _normalize(params: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-normalize params (tuples -> lists, keys -> str) so a spec
    compares equal to its JSON round trip."""
    try:
        return json.loads(json.dumps(params))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"spec params must be JSON-serializable: {exc}")


@dataclass(frozen=True)
class ElementSpec:
    """One declarative path element: a catalog ``kind`` plus kwargs.

    Examples::

        ElementSpec("constant_jitter", {"eta": 0.005})
        ElementSpec("exempt_first_jitter", {"eta": 0.001,
                                            "exempt_seqs": [0]})
        ElementSpec("random_loss", {"loss_prob": 0.02})

    Seeded kinds (``random_loss``) receive a derived seed at build time
    unless ``params`` pins ``"seed"`` explicitly.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ELEMENTS:
            raise ConfigurationError(
                f"unknown element kind {self.kind!r}; known: "
                f"{', '.join(sorted(ELEMENTS))}")
        object.__setattr__(self, "params", _normalize(self.params))

    def factory(self, seed: Optional[int] = None) -> ElementFactory:
        """The ``(sim, sink) -> element`` callable for the build layer."""
        reg = ELEMENTS[self.kind]
        kwargs = dict(self.params)
        if reg.seeded and seed is not None and "seed" not in kwargs:
            kwargs["seed"] = seed

        def build(sim: object, sink: object) -> object:
            try:
                return reg.cls(sim, sink, **kwargs)
            except TypeError as exc:
                raise ConfigurationError(
                    f"bad params for element {self.kind!r}: {exc}")

        return build

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ElementSpec":
        return cls(kind=data["kind"], params=dict(data.get("params", {})))


#: Fault kinds map 1:1 onto :class:`FaultSchedule` fluent helpers.
FAULT_KINDS: Tuple[str, ...] = ("blackout", "flap", "gilbert_elliott",
                                "reorder", "duplicate", "corrupt")


@dataclass(frozen=True)
class FaultWindowSpec:
    """One scripted impairment window: ``kind`` active in [start, end).

    ``params`` are the keyword arguments of the matching
    :class:`FaultSchedule` helper (e.g. ``{"mean_loss": 0.02}`` for
    ``gilbert_elliott``, ``{"period": 2.0, "down_time": 0.25}`` for
    ``flap``). ``start``/``end`` may be ``inf`` for always-on faults;
    Python's JSON dialect round-trips infinities.
    """

    kind: str
    start: float
    end: float
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(FAULT_KINDS)}")
        try:
            start = float(self.start)
            end = float(self.end)
        except (TypeError, ValueError):
            raise SpecValidationError(
                f"fault window start/end must be numbers, got "
                f"{self.start!r}/{self.end!r}")
        # A NaN endpoint makes the window silently never (or always)
        # active — comparisons with NaN are all False — so reject it
        # here rather than debugging a fault that "didn't happen".
        # ``end = inf`` is the documented always-on horizon and stays
        # legal; an infinite *start* can never activate.
        if math.isnan(start) or math.isnan(end) or math.isinf(start):
            raise SpecValidationError(
                f"fault window start/end must be finite (end may be "
                f"inf), got [{start!r}, {end!r})")
        if start < 0:
            raise SpecValidationError(
                f"fault window start must be >= 0, got {start!r}")
        if end < start:
            raise SpecValidationError(
                f"fault window end ({end!r}) precedes its start "
                f"({start!r})")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "params", _normalize(self.params))

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "start": self.start, "end": self.end,
                "params": dict(self.params)}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FaultWindowSpec":
        return cls(kind=data["kind"], start=data["start"],
                   end=data["end"], params=dict(data.get("params", {})))


@dataclass(frozen=True)
class FaultScheduleSpec:
    """Declarative mirror of :class:`repro.sim.faults.FaultSchedule`.

    ``seed`` seeds the schedule's stochastic windows; ``None`` (the
    default) means "derive from the scenario root seed at build time",
    which is what keeps a :class:`~repro.spec.scenario.ScenarioSpec`
    fully reproducible from its single root seed.
    """

    windows: Tuple[FaultWindowSpec, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "windows", tuple(self.windows))

    def build(self, derived_seed: int = 0) -> FaultSchedule:
        """Reconstruct the live schedule (explicit seed wins)."""
        seed = self.seed if self.seed is not None else derived_seed
        schedule = FaultSchedule(seed=seed)
        for window in self.windows:
            helper = getattr(schedule, window.kind)
            try:
                helper(window.start, window.end, **window.params)
            except TypeError as exc:
                raise ConfigurationError(
                    f"bad params for fault {window.kind!r}: {exc}")
        return schedule

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "windows": [w.to_json() for w in self.windows]}
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FaultScheduleSpec":
        return cls(windows=tuple(FaultWindowSpec.from_json(w)
                                 for w in data.get("windows", [])),
                   seed=data.get("seed"))

    def __bool__(self) -> bool:
        return bool(self.windows)


def element_kinds() -> List[str]:
    """All element kinds a spec may reference, sorted."""
    return sorted(ELEMENTS)
