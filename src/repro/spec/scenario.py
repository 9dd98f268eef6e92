"""ScenarioSpec: the declarative, serializable scenario description.

This is the one description of a packet run. A :class:`ScenarioSpec`
is pure data — CCAs by registry name, path elements by catalog kind, one
root ``seed`` — and round-trips losslessly through JSON. The simulator
builds from it directly: :meth:`ScenarioSpec.build` hands ``link`` (or
``topology.links``), ``flows`` and ``seed`` to
:func:`repro.sim.network.build_topology`, in whatever process the
scenario actually runs.

A spec pickles trivially (it's dicts and floats all the way down), which
is what lets :class:`repro.analysis.backends.ProcessPoolBackend` fan
grid points out across cores while keeping results bit-identical to a
serial run — every RNG seed is derived from the root seed and the
component's position, never from execution order (see
docs/ARCHITECTURE.md).

Seed derivation tree (root ``seed`` = S), applied by the builder::

    flow i's CCA          derive_seed(S, "flow", i, "cca")
    flow i data elem j    derive_seed(S, "flow", i, "data", j)
    flow i ack  elem j    derive_seed(S, "flow", i, "ack", j)
    link elem j           derive_seed(S, "link", j)
    topo link L elem j    derive_seed(S, "link", L, j)

An explicit ``seed`` inside a CCA's or an element's params always
overrides the derived one.

Version 1 of the JSON format described time-windowed impairments in a
second vocabulary (a ``faults`` schedule of windows per flow and per
link). :func:`_upgrade_v1` rewrites such a document into this one on
load; nothing writes version 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from .. import resolve
from ..ccas import registry
from ..errors import ConfigurationError, SpecValidationError
from ..sim import runner
from ..sim.network import Scenario, build_topology
from .elements import (ELEMENTS, ElementSpec, _check_number, _normalize,
                       json_list, json_object)
from .seeds import derive_seed
from .topology import TopologySpec

SPEC_VERSION = 2


def _first(*values: Optional[float]) -> Optional[float]:
    """The first value that is not None: an explicit argument, then the
    spec's embedded run value, then a default."""
    return next((v for v in values if v is not None), None)


def _check_seed(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(f"{name} must be an int, got {value!r}")
    return value


@dataclass(frozen=True)
class CCASpec:
    """A CCA by registry name plus constructor kwargs.

    ``CCASpec("bbr", {"seed": 3})`` pins BBR's probe-phase seed;
    ``CCASpec("bbr")`` leaves it to the scenario root seed.
    """

    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise SpecValidationError(
                f"CCA name must be a string, got {self.name!r}")
        registry.entry(self.name)  # fail fast on unknown names
        if not isinstance(self.params, dict):
            raise SpecValidationError(
                f"CCA {self.name!r} params must be an object, got "
                f"{self.params!r}")
        object.__setattr__(self, "params", _normalize(self.params))

    def create(self, seed: Optional[int] = None) -> object:
        return registry.create(self.name, dict(self.params), seed=seed)

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_json(cls, data: Any) -> "CCASpec":
        data = json_object(data, "a CCA", "name")
        return cls(name=data["name"], params=data.get("params", {}))


@dataclass(frozen=True)
class FlowSpec:
    """One flow: its CCA, ``rm``, path elements and receiver policy."""

    cca: CCASpec
    rm: float
    start_time: float = 0.0
    mss: int = 1500
    data_elements: Tuple[ElementSpec, ...] = ()
    ack_elements: Tuple[ElementSpec, ...] = ()
    ack_every: int = 1
    ack_timeout: Optional[float] = None
    burst_size: int = 1
    label: str = ""
    #: Ordered link ids the flow traverses; only meaningful when the
    #: scenario carries a :class:`~repro.spec.topology.TopologySpec`.
    #: Empty = route over every topology link in declaration order
    #: (and, for legacy dumbbells, simply "the bottleneck").
    path: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_number("rm", self.rm, positive=True)
        _check_number("start_time", self.start_time)
        _check_number("ack_timeout", self.ack_timeout, positive=True,
                      allow_none=True)
        if isinstance(self.mss, bool) or not isinstance(self.mss, int) \
                or self.mss <= 0:
            raise SpecValidationError(
                f"mss must be a positive int, got {self.mss!r}")
        if isinstance(self.ack_every, bool) \
                or not isinstance(self.ack_every, int) \
                or self.ack_every < 1:
            raise SpecValidationError(
                f"ack_every must be an int >= 1, got {self.ack_every!r}")
        if isinstance(self.burst_size, bool) \
                or not isinstance(self.burst_size, int) \
                or self.burst_size < 1:
            raise SpecValidationError(
                f"burst_size must be an int >= 1, got {self.burst_size!r}")
        object.__setattr__(self, "data_elements",
                           tuple(self.data_elements))
        object.__setattr__(self, "ack_elements",
                           tuple(self.ack_elements))
        object.__setattr__(self, "path", tuple(self.path))
        for link_id in self.path:
            if not isinstance(link_id, str) or not link_id:
                raise SpecValidationError(
                    f"flow path entries must be non-empty link-id "
                    f"strings, got {link_id!r}")

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "cca": self.cca.to_json(),
            "rm": self.rm,
            "start_time": self.start_time,
            "mss": self.mss,
            "data_elements": [e.to_json() for e in self.data_elements],
            "ack_elements": [e.to_json() for e in self.ack_elements],
            "ack_every": self.ack_every,
            "ack_timeout": self.ack_timeout,
            "burst_size": self.burst_size,
            "label": self.label,
        }
        if self.path:
            data["path"] = list(self.path)
        return data

    @classmethod
    def from_json(cls, data: Any) -> "FlowSpec":
        data = json_object(data, "a flow", "cca", "rm")
        return cls(
            cca=CCASpec.from_json(data["cca"]),
            rm=data["rm"],
            start_time=data.get("start_time", 0.0),
            mss=data.get("mss", 1500),
            data_elements=json_list(data.get("data_elements", []),
                                    "flow data_elements",
                                    ElementSpec.from_json),
            ack_elements=json_list(data.get("ack_elements", []),
                                   "flow ack_elements",
                                   ElementSpec.from_json),
            ack_every=data.get("ack_every", 1),
            ack_timeout=data.get("ack_timeout"),
            burst_size=data.get("burst_size", 1),
            label=data.get("label", ""),
            path=json_list(data.get("path", []), "flow path"),
        )


@dataclass(frozen=True)
class LinkSpec:
    """The dumbbell's shared bottleneck (``buffer_bdp`` is a multiple of
    ``rate`` times the first flow's ``rm``)."""

    rate: float
    buffer_bytes: Optional[float] = None
    buffer_bdp: Optional[float] = None
    ecn_threshold_bytes: Optional[float] = None
    #: Shared chain in front of the queue: every flow meets it.
    elements: Tuple[ElementSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        _check_number("link rate", self.rate, positive=True)
        _check_number("buffer_bytes", self.buffer_bytes, positive=True,
                      allow_none=True)
        _check_number("buffer_bdp", self.buffer_bdp, positive=True,
                      allow_none=True)
        _check_number("ecn_threshold_bytes", self.ecn_threshold_bytes,
                      positive=True, allow_none=True)
        if self.buffer_bytes is not None and self.buffer_bdp is not None:
            raise ConfigurationError(
                "specify buffer_bytes or buffer_bdp, not both")

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "rate": self.rate,
            "buffer_bytes": self.buffer_bytes,
            "buffer_bdp": self.buffer_bdp,
            "ecn_threshold_bytes": self.ecn_threshold_bytes,
        }
        if self.elements:
            data["elements"] = [e.to_json() for e in self.elements]
        return data

    @classmethod
    def from_json(cls, data: Any) -> "LinkSpec":
        data = json_object(data, "the link", "rate")
        return cls(
            rate=data["rate"],
            buffer_bytes=data.get("buffer_bytes"),
            buffer_bdp=data.get("buffer_bdp"),
            ecn_threshold_bytes=data.get("ecn_threshold_bytes"),
            elements=json_list(data.get("elements", []), "link elements",
                               ElementSpec.from_json),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable scenario: link(s) + flows + root seed.

    Exactly one of ``link`` (the legacy single-bottleneck dumbbell) or
    ``topology`` (a :class:`~repro.spec.topology.TopologySpec` graph of
    links routed by ``FlowSpec.path``) must be set. Dumbbell scenarios
    serialize byte-identically to before topologies existed.

    ``duration``/``warmup``/``sample_interval`` are optional embedded
    run parameters so a JSON file is self-contained for ``repro run
    --spec``; callers may override them at :meth:`run` time.
    """

    link: Optional[LinkSpec] = None
    flows: Tuple[FlowSpec, ...] = ()
    seed: int = 0
    duration: Optional[float] = None
    warmup: Optional[float] = None
    sample_interval: Optional[float] = None
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", tuple(self.flows))
        if not self.flows:
            raise ConfigurationError("scenario needs at least one flow")
        _check_seed("seed", self.seed)
        _check_number("duration", self.duration, positive=True,
                      allow_none=True)
        _check_number("warmup", self.warmup, allow_none=True)
        _check_number("sample_interval", self.sample_interval,
                      positive=True, allow_none=True)
        if self.duration is not None and self.warmup is not None \
                and self.warmup >= self.duration:
            raise SpecValidationError(
                f"warmup ({self.warmup}) must be shorter than the "
                f"duration ({self.duration})")
        if (self.link is None) == (self.topology is None):
            raise SpecValidationError(
                "scenario needs exactly one of link= (dumbbell) or "
                "topology= (multi-bottleneck graph)")
        if self.topology is not None:
            for i, flow in enumerate(self.flows):
                try:
                    if flow.path:
                        self.topology.validate_path(flow.path)
                    else:
                        self.topology.default_path()
                except SpecValidationError as exc:
                    raise SpecValidationError(f"flow {i}: {exc}")
        else:
            for i, flow in enumerate(self.flows):
                if flow.path:
                    raise SpecValidationError(
                        f"flow {i} names a path {list(flow.path)} but "
                        "the scenario has no topology")

    @property
    def bottleneck_rate(self) -> float:
        """The designated bottleneck's rate (first topology link)."""
        if self.link is not None:
            return self.link.rate
        return self.topology.links[0].rate

    # ------------------------------------------------------------------
    # Build and run
    # ------------------------------------------------------------------

    def build(self, sample_interval: Optional[float] = None,
              invariants: Optional[str] = None) -> Scenario:
        """The live :class:`Scenario`, ready to run."""
        return build_topology(
            self.link or self.topology.links, self.flows,
            sample_interval=_first(sample_interval, self.sample_interval,
                                   0.05),
            invariants=invariants, seed=self.seed)

    def run(self, duration: Optional[float] = None,
            warmup: Optional[float] = None,
            sample_interval: Optional[float] = None,
            max_events: Optional[int] = None,
            wall_clock_budget: Optional[float] = None,
            invariants: Optional[str] = None) -> runner.RunResult:
        """Build, run and summarize; arguments override the spec's
        embedded values.

        Without a ``sample_interval`` the recorders sample finely enough
        to resolve the shortest ``rm``. ``max_events`` /
        ``wall_clock_budget`` arm the engine watchdog: a divergent run
        raises :class:`repro.errors.BudgetExceededError` instead of
        spinning forever. ``invariants`` selects the runtime sentinel
        mode (``off``/``warn``/``strict``; ``None`` resolves from
        ``REPRO_INVARIANTS``) — the fuzz oracle battery passes
        ``"strict"`` explicitly so pool workers behave identically to
        in-process runs regardless of inherited environment.
        """
        duration = _first(duration, self.duration)
        if duration is None:
            raise ConfigurationError(
                "no duration: pass run(duration=...) or set it on the spec")
        warmup = _first(warmup, self.warmup, 0.0)
        sample_interval = _first(sample_interval, self.sample_interval)
        if sample_interval is None:
            min_rm = min(flow.rm for flow in self.flows)
            sample_interval = max(min_rm / 4, duration / 20000)
        scenario = runner.build_topology(
            self.link or self.topology.links, self.flows,
            sample_interval=sample_interval, invariants=invariants,
            seed=self.seed)
        scenario.run(duration, max_events=max_events,
                     wall_clock_budget=wall_clock_budget)
        return runner.RunResult(
            scenario=scenario,
            stats=runner.summarize(scenario, duration, warmup),
            duration=duration, warmup=warmup)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "version": SPEC_VERSION,
            "seed": self.seed,
        }
        if self.link is not None:
            data["link"] = self.link.to_json()
        data["flows"] = [f.to_json() for f in self.flows]
        if self.topology is not None:
            data["topology"] = self.topology.to_json()
        for key in ("duration", "warmup", "sample_interval"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    @classmethod
    def from_json(cls, data: Any) -> "ScenarioSpec":
        data = json_object(data, "a scenario spec", "flows")
        version = data.get("version", SPEC_VERSION)
        if version == 1:
            data = _upgrade_v1(data)
        elif version != SPEC_VERSION:
            raise ConfigurationError(
                f"unsupported scenario spec version {version!r} "
                f"(this build reads versions 1 and {SPEC_VERSION})")
        link = data.get("link")
        topology = data.get("topology")
        return cls(
            link=LinkSpec.from_json(link) if link is not None else None,
            flows=json_list(data["flows"], "flows", FlowSpec.from_json),
            seed=data.get("seed", 0),
            duration=data.get("duration"),
            warmup=data.get("warmup"),
            sample_interval=data.get("sample_interval"),
            topology=(TopologySpec.from_json(topology)
                      if topology is not None else None),
        )

    def dumps(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ScenarioSpec":
        return cls.from_json(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.loads(fh.read())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"cannot read scenario spec {path!r}: {exc}")

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_link_rate(self, rate: float) -> "ScenarioSpec":
        """A copy with the bottleneck rate replaced (sweep templates).

        For topology scenarios the *first* declared link is the
        designated bottleneck and gets the new rate; the remaining
        links keep theirs.
        """
        if self.topology is not None:
            first = self.topology.links[0].id
            return replace(
                self, topology=self.topology.with_link_rate(first, rate))
        return replace(self, link=replace(self.link, rate=rate))

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy with a different root seed (replication studies)."""
        return replace(self, seed=seed)


#: Version-1 fault kind -> (element kind, {version-1 helper parameter
#: name: constructor parameter name}). ``corrupt`` was ``random_loss``
#: under another counter name.
_V1_FAULTS: Dict[str, Tuple[str, Dict[str, str]]] = {
    "blackout": ("blackout", {}),
    "flap": ("flap", {}),
    "gilbert_elliott": ("gilbert_elliott", {}),
    "reorder": ("reorder", {"prob": "reorder_prob"}),
    "duplicate": ("duplicate", {"prob": "dup_prob"}),
    "corrupt": ("random_loss", {"prob": "loss_prob"}),
}


def _upgrade_v1(data: Dict[str, Any]) -> Dict[str, Any]:
    """Rewrite a version-1 scenario document as version 2.

    Version 1 gave flows, the link and topology links a ``faults``
    schedule: ``{"windows": [{kind, start, end, params}, ...], "seed"}``.
    Window ``k`` becomes a gated element appended to the owner's
    ``data_elements`` (flows) or ``elements`` (links) — the position the
    schedule occupied on the path. A ``[0, inf)`` window becomes an
    ungated element. So that a saved document keeps producing the run
    it produced, each stochastic element's ``seed`` is pinned to the
    value version 1 gave it: ``schedule_seed * 1000 + k``, where
    ``schedule_seed`` is the schedule's own ``seed`` when it has one
    (0 counts) and otherwise ``derive_seed(S, owner..., "faults")``.
    """
    root = _check_seed("seed", data.get("seed", 0))

    def upgraded(owner: Any, key: str, *seed_path: Any) -> Any:
        if not isinstance(owner, dict) or "faults" not in owner:
            return owner
        owner = dict(owner)
        faults = json_object(owner.pop("faults") or {}, "a faults schedule")
        schedule_seed = faults.get("seed")
        if schedule_seed is None:
            schedule_seed = derive_seed(root, *seed_path, "faults")
        _check_seed("a faults schedule seed", schedule_seed)
        elements = list(json_list(owner.get(key, []), key))
        windows = json_list(faults.get("windows", []), "fault windows")
        for k, window in enumerate(windows):
            json_object(window, "a fault window", "kind", "start", "end")
            if not isinstance(window["kind"], str) \
                    or window["kind"] not in _V1_FAULTS:
                raise SpecValidationError(
                    f"unknown version-1 fault kind {window['kind']!r}"
                    f"; known: {', '.join(_V1_FAULTS)}")
            kind, renamed = _V1_FAULTS[window["kind"]]
            params = {renamed.get(name, name): value for name, value in
                      json_object(window.get("params", {}),
                                  "fault params").items()}
            _, seeded = resolve(ELEMENTS[kind].path)
            if seeded:
                params["seed"] = schedule_seed * 1000 + k
            element = {"kind": kind, "params": params}
            if (window["start"], window["end"]) != (0.0, float("inf")):
                element.update(start=window["start"], end=window["end"])
            elements.append(element)
        owner[key] = elements
        return owner

    data = dict(data, version=SPEC_VERSION)
    data["flows"] = [upgraded(flow, "data_elements", "flow", i) for i, flow
                     in enumerate(json_list(data["flows"], "flows"))]
    if data.get("link") is not None:
        data["link"] = upgraded(data["link"], "elements", "link")
    if data.get("topology") is not None:
        topology = json_object(data["topology"], "the topology")
        data["topology"] = dict(topology, links=[
            upgraded(json_object(lk, "a topology link"), "elements", "link",
                     lk.get("id"))
            for lk in json_list(topology.get("links", []),
                                "topology links")])
    return data


def single_flow_scenario(cca: CCASpec, rate: float, rm: float,
                         mss: int = 1500, seed: int = 0,
                         duration: Optional[float] = None,
                         warmup: Optional[float] = None) -> ScenarioSpec:
    """The sweep workhorse: one flow of ``cca`` on an ideal link."""
    return ScenarioSpec(
        link=LinkSpec(rate=rate),
        flows=(FlowSpec(cca=cca, rm=rm, mss=mss),),
        seed=seed, duration=duration, warmup=warmup)
