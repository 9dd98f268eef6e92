"""Declarative path-element specifications: one catalog, one shape.

Scenario descriptions used to embed live ``ElementFactory`` lambdas
(closures over a Simulator-to-be), which cannot be serialized or sent to
a worker process. :class:`ElementSpec` replaces them with pure data —
``(kind, params)`` naming one element from the catalog below, plus an
optional ``[start, end)`` window during which the element is on the
path at all. Everything between a sender and a queue (or a receiver and
its sender) is spelled this way: jitter, loss, delay, outages, flapping,
reordering, duplication. :meth:`ElementSpec.factory` turns a spec back
into the ``(sim, sink) -> element`` callable the builder chains.

Specs are JSON-round-trippable: params are normalized through JSON on
construction, so a spec that travelled through ``json.dumps`` /
``json.loads`` compares equal to the original.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from .. import resolve
from ..errors import ConfigurationError, SpecValidationError
from ..sim.path import ElementFactory, gated


@dataclass(frozen=True)
class ElementEntry:
    """Catalog row: the ``"package.module:QualName"`` path of the
    element's constructor, and whether a ``start``/``end`` window may
    gate it.

    Kinds that hold packets and release them in order (the
    ``JitterElement`` family and ``delay``) are not windowable: a gate
    that closes while they hold packets lets later ones overtake those,
    which breaks the paper's no-reordering model. ``reorder`` holds
    packets too, but reordering is what it is for.
    """

    path: str
    windowable: bool = True


#: Every path element a spec may name. Keys are the JSON ``kind``.
ELEMENTS: Dict[str, ElementEntry] = {
    "delay": ElementEntry("repro.sim.path:DelayElement", windowable=False),
    "no_jitter": ElementEntry("repro.sim.jitter:NoJitter",
                              windowable=False),
    "constant_jitter": ElementEntry("repro.sim.jitter:ConstantJitter",
                                    windowable=False),
    "exempt_first_jitter": ElementEntry(
        "repro.sim.jitter:ExemptFirstJitter", windowable=False),
    "ack_aggregation": ElementEntry(
        "repro.sim.jitter:AckAggregationJitter", windowable=False),
    "square_wave_jitter": ElementEntry(
        "repro.sim.jitter:SquareWaveJitter", windowable=False),
    "step_trace_jitter": ElementEntry(
        "repro.sim.jitter:StepTraceJitter", windowable=False),
    "token_bucket": ElementEntry("repro.sim.jitter:TokenBucketJitter",
                                 windowable=False),
    "random_loss": ElementEntry("repro.sim.loss:RandomLossElement"),
    "periodic_loss": ElementEntry("repro.sim.loss:PeriodicLossElement"),
    "targeted_loss": ElementEntry("repro.sim.loss:TargetedLossElement"),
    "gilbert_elliott": ElementEntry(
        "repro.sim.faults:GilbertElliottLossElement.from_mean_loss"),
    "blackout": ElementEntry("repro.sim.faults:BlackoutElement"),
    "flap": ElementEntry("repro.sim.faults:LinkFlapElement"),
    "reorder": ElementEntry("repro.sim.faults:ReorderElement"),
    "duplicate": ElementEntry("repro.sim.faults:DuplicateElement"),
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
    """One declarative path element: a catalog ``kind`` plus kwargs,
    optionally confined to the window ``[start, end)``.

    Examples::

        ElementSpec("constant_jitter", {"eta": 0.005})
        ElementSpec("exempt_first_jitter", {"eta": 0.001,
                                            "exempt_seqs": [0]})
        ElementSpec("random_loss", {"loss_prob": 0.02})
        ElementSpec("blackout", start=5.0, end=7.0)
        ElementSpec("gilbert_elliott", {"mean_loss": 0.02}, start=10.0)

    No ``start``/``end`` means the element is always on the path; one
    of them alone leaves the other at 0 / ``inf`` (Python's JSON
    dialect round-trips infinities). Seeded kinds receive a derived
    seed at build time unless ``params`` pins ``"seed"`` explicitly.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    start: Optional[float] = None
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in ELEMENTS:
            raise SpecValidationError(
                f"unknown element kind {self.kind!r}; known: "
                f"{', '.join(sorted(ELEMENTS))}")
        if not isinstance(self.params, dict):
            raise SpecValidationError(
                f"element {self.kind!r} params must be an object, got "
                f"{self.params!r}")
        object.__setattr__(self, "params", _normalize(self.params))
        # A trial construction: the element's constructor validates its
        # params, so a bad one fails here, where the spec is written,
        # not in the middle of a run.
        try:
            resolve(ELEMENTS[self.kind].path)[0](None, None, **self.params)
        except (TypeError, ValueError, ConfigurationError) as exc:
            raise SpecValidationError(
                f"bad params for element {self.kind!r}: {exc}")
        if self.start is None and self.end is None:
            return
        if not ELEMENTS[self.kind].windowable:
            raise SpecValidationError(
                f"element {self.kind!r} holds packets in order and "
                f"cannot take a start/end window")
        try:
            start = 0.0 if self.start is None else float(self.start)
            end = math.inf if self.end is None else float(self.end)
        except (TypeError, ValueError):
            raise SpecValidationError(
                f"element window start/end must be numbers, got "
                f"{self.start!r}/{self.end!r}")
        # A NaN endpoint makes the window silently never (or always)
        # active — comparisons with NaN are all False — so reject it
        # here rather than debugging a fault that "didn't happen".
        # ``end = inf`` is the always-on horizon and stays legal; an
        # infinite *start* can never activate.
        if math.isnan(start) or math.isnan(end) or math.isinf(start):
            raise SpecValidationError(
                f"element window start/end must be finite (end may be "
                f"inf), got [{start!r}, {end!r})")
        if start < 0:
            raise SpecValidationError(
                f"element window start must be >= 0, got {start!r}")
        if not start < end:
            raise SpecValidationError(
                f"element window needs start < end, got "
                f"[{start!r}, {end!r})")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    def factory(self, seed: Optional[int] = None) -> ElementFactory:
        """The ``(sim, sink) -> element`` callable the builder chains."""
        cls, seeded = resolve(ELEMENTS[self.kind].path)
        kwargs = dict(self.params)
        if seeded and seed is not None and "seed" not in kwargs:
            kwargs["seed"] = seed

        def build(sim: object, sink: object) -> object:
            return cls(sim, sink, **kwargs)

        if self.start is None:
            return build
        return gated(build, self.start, self.end)

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind,
                                "params": dict(self.params)}
        if self.start is not None:
            data["start"] = self.start
            data["end"] = self.end
        return data

    @classmethod
    def from_json(cls, data: Any) -> "ElementSpec":
        data = json_object(data, "an element", "kind")
        return cls(kind=data["kind"], params=data.get("params", {}),
                   start=data.get("start"), end=data.get("end"))


def json_object(data: Any, what: str, *required: str) -> Dict[str, Any]:
    """``data`` if it is a JSON object holding every ``required`` key.

    Every ``from_json`` in :mod:`repro.spec` reads its document through
    this and :func:`json_list`, so a malformed nested document — a list
    where an object belongs, a missing key — fails with a typed
    :class:`SpecValidationError` naming ``what``, never with the
    ``AttributeError`` / ``KeyError`` / ``TypeError`` of a blind lookup.
    """
    if not isinstance(data, dict):
        raise SpecValidationError(f"{what} must be an object, got {data!r}")
    for key in required:
        if key not in data:
            raise SpecValidationError(f"{what} needs a {key!r} key: {data!r}")
    return data


def json_list(data: Any, what: str,
              parse: Callable[[Any], Any] = lambda item: item) -> tuple:
    """The JSON list ``data`` (named ``what``), each item ``parse``-d."""
    if not isinstance(data, list):
        raise SpecValidationError(f"{what} must be a list, got {data!r}")
    return tuple(parse(item) for item in data)
