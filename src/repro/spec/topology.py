"""Topology specs: a small directed graph of links for multi-hop paths.

The paper's model is a single bottleneck, but its bite in practice is
inter-CCA competition across shared and partially-shared paths —
parking-lot graphs where a long flow crosses several queues while short
flows each load one of them. This module is the pure-data description
of such graphs: nodes, directed links (each one a ``BottleneckQueue``
plus optional propagation delay), and per-flow paths as ordered link-id
lists (``FlowSpec.path``).

Like the rest of :mod:`repro.spec`, everything here is JSON-round-trip
data with :class:`SpecValidationError` hardening. The validation is the
only validation: :func:`repro.sim.network.build_topology` wires
``TopologySpec.links`` as given and checks no ids or paths again. A
``ScenarioSpec`` without a topology still builds the dumbbell
byte-identically — topology is strictly additive.

Seed derivation adds one branch to the existing tree (root ``S``)::

    link L's element j   derive_seed(S, "link", L, j)

keyed by the link's *id*, never its position in the declaration (the
dumbbell's single link stays ``derive_seed(S, "link", j)``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SpecValidationError
from .elements import ElementSpec, _check_number, json_list, json_object


def _check_id(name: str, value: Any) -> None:
    if not isinstance(value, str) or not value:
        raise SpecValidationError(
            f"{name} must be a non-empty string, got {value!r}")


@dataclass(frozen=True)
class NodeSpec:
    """A named vertex of the topology graph (a router/host site)."""

    id: str

    def __post_init__(self) -> None:
        _check_id("node id", self.id)

    def to_json(self) -> Dict[str, Any]:
        return {"id": self.id}

    @classmethod
    def from_json(cls, data: Any) -> "NodeSpec":
        return cls(id=json_object(data, "a topology node", "id")["id"])


@dataclass(frozen=True)
class TopoLinkSpec:
    """One directed link: a bottleneck queue plus propagation delay.

    This deliberately does *not* reuse :class:`LinkSpec` — the legacy
    dumbbell link serializes with a fixed key set that cache keys and
    golden spec JSON depend on, so topology links get their own schema
    with graph fields (``id``/``src``/``dst``/``delay``) first-class.
    """

    id: str
    src: str
    dst: str
    rate: float
    delay: float = 0.0
    buffer_bytes: Optional[float] = None
    buffer_bdp: Optional[float] = None
    ecn_threshold_bytes: Optional[float] = None
    #: Shared chain in front of this link's queue.
    elements: Tuple[ElementSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        _check_id("link id", self.id)
        _check_id(f"link {self.id!r} src", self.src)
        _check_id(f"link {self.id!r} dst", self.dst)
        if self.src == self.dst:
            raise SpecValidationError(
                f"link {self.id!r} is a self-loop ({self.src!r})")
        _check_number(f"link {self.id!r} rate", self.rate, positive=True)
        _check_number(f"link {self.id!r} delay", self.delay)
        _check_number(f"link {self.id!r} buffer_bytes", self.buffer_bytes,
                      positive=True, allow_none=True)
        _check_number(f"link {self.id!r} buffer_bdp", self.buffer_bdp,
                      positive=True, allow_none=True)
        _check_number(f"link {self.id!r} ecn_threshold_bytes",
                      self.ecn_threshold_bytes, positive=True,
                      allow_none=True)
        if self.buffer_bytes is not None and self.buffer_bdp is not None:
            raise ConfigurationError(
                f"link {self.id!r}: specify buffer_bytes or buffer_bdp, "
                "not both")

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.id,
            "src": self.src,
            "dst": self.dst,
            "rate": self.rate,
            "delay": self.delay,
            "buffer_bytes": self.buffer_bytes,
            "buffer_bdp": self.buffer_bdp,
            "ecn_threshold_bytes": self.ecn_threshold_bytes,
        }
        if self.elements:
            data["elements"] = [e.to_json() for e in self.elements]
        return data

    @classmethod
    def from_json(cls, data: Any) -> "TopoLinkSpec":
        data = json_object(data, "a topology link", "id", "src", "dst",
                           "rate")
        if "faults" in data:
            # Inside a version-1 scenario the upgrade has rewritten it;
            # a standalone topology file has no version and no seed to
            # upgrade with, and dropping the key would run unimpaired.
            raise SpecValidationError(
                f"link {data.get('id')!r} carries a version-1 'faults' "
                f"schedule; list gated elements under 'elements' "
                f"instead (docs/FAULTS.md)")
        return cls(
            id=data["id"],
            src=data["src"],
            dst=data["dst"],
            rate=data["rate"],
            delay=data.get("delay", 0.0),
            buffer_bytes=data.get("buffer_bytes"),
            buffer_bdp=data.get("buffer_bdp"),
            ecn_threshold_bytes=data.get("ecn_threshold_bytes"),
            elements=json_list(data.get("elements", []), "link elements",
                               ElementSpec.from_json),
        )


@dataclass(frozen=True)
class TopologySpec:
    """A directed graph of links; flows route over it by link-id path.

    Validation is eager and typed: duplicate node/link ids, dangling
    endpoints, and disconnected paths all raise
    :class:`SpecValidationError` at construction, never mid-simulation.
    """

    nodes: Tuple[NodeSpec, ...] = ()
    links: Tuple[TopoLinkSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))
        if not self.links:
            raise SpecValidationError("topology needs at least one link")
        node_ids = [n.id for n in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            dupes = sorted({i for i in node_ids if node_ids.count(i) > 1})
            raise SpecValidationError(f"duplicate node ids: {dupes}")
        link_ids = [lk.id for lk in self.links]
        if len(set(link_ids)) != len(link_ids):
            dupes = sorted({i for i in link_ids if link_ids.count(i) > 1})
            raise SpecValidationError(f"duplicate link ids: {dupes}")
        known = set(node_ids)
        for lk in self.links:
            for end in (lk.src, lk.dst):
                if end not in known:
                    raise SpecValidationError(
                        f"link {lk.id!r} references unknown node "
                        f"{end!r}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def link_ids(self) -> Tuple[str, ...]:
        return tuple(lk.id for lk in self.links)

    def link(self, link_id: str) -> TopoLinkSpec:
        for lk in self.links:
            if lk.id == link_id:
                return lk
        raise SpecValidationError(f"unknown link id {link_id!r}")

    def default_path(self) -> Tuple[str, ...]:
        """All links in declaration order (the long parking-lot flow).

        Only valid when the declared links form a connected chain;
        otherwise flows must name explicit paths.
        """
        path = self.link_ids()
        self.validate_path(path)
        return path

    def validate_path(self, path: Sequence[str]) -> Tuple[str, ...]:
        """Check a link-id path: known ids, no repeats, connected."""
        path = tuple(path)
        if not path:
            raise SpecValidationError("flow path must not be empty")
        if len(set(path)) != len(path):
            raise SpecValidationError(
                f"flow path repeats a link: {list(path)}")
        links = [self.link(link_id) for link_id in path]
        for upstream, downstream in zip(links, links[1:]):
            if upstream.dst != downstream.src:
                raise SpecValidationError(
                    f"path hop {upstream.id!r} ends at "
                    f"{upstream.dst!r} but {downstream.id!r} starts at "
                    f"{downstream.src!r}")
        return path

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "nodes": [n.to_json() for n in self.nodes],
            "links": [lk.to_json() for lk in self.links],
        }

    @classmethod
    def from_json(cls, data: Any) -> "TopologySpec":
        data = json_object(data, "a topology")
        return cls(
            nodes=json_list(data.get("nodes", []), "topology nodes",
                            NodeSpec.from_json),
            links=json_list(data.get("links", []), "topology links",
                            TopoLinkSpec.from_json),
        )

    def dumps(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "TopologySpec":
        return cls.from_json(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "TopologySpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.loads(fh.read())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"cannot read topology spec {path!r}: {exc}")

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_link_rate(self, link_id: str, rate: float) -> "TopologySpec":
        """A copy with one link's rate replaced (sweep templates)."""
        self.link(link_id)  # fail fast on unknown ids
        return replace(self, links=tuple(
            replace(lk, rate=rate) if lk.id == link_id else lk
            for lk in self.links))


# ----------------------------------------------------------------------
# Canonical helper topologies
# ----------------------------------------------------------------------


def parking_lot_topology(rates: Sequence[float],
                         delays: Optional[Sequence[float]] = None,
                         buffer_bdp: Optional[float] = None,
                         ecn_threshold_bytes: Optional[float] = None,
                         ) -> TopologySpec:
    """N links in series: ``n0 --b0--> n1 --b1--> ... --> nN``.

    The classic multi-bottleneck testbed: a long flow routed over every
    link competes at each hop with short flows that load only that hop.
    ``rates[i]`` is link ``b{i}``'s rate; ``delays[i]`` its propagation
    delay (default 0, keeping per-flow ``rm`` the only delay source as
    in the dumbbell).
    """
    rates = list(rates)
    if not rates:
        raise SpecValidationError(
            "parking lot needs at least one link rate")
    if delays is None:
        delays = [0.0] * len(rates)
    delays = list(delays)
    if len(delays) != len(rates):
        raise SpecValidationError(
            f"got {len(rates)} rates but {len(delays)} delays")
    nodes = tuple(NodeSpec(f"n{i}") for i in range(len(rates) + 1))
    links = tuple(
        TopoLinkSpec(id=f"b{i}", src=f"n{i}", dst=f"n{i + 1}",
                     rate=rate, delay=delays[i], buffer_bdp=buffer_bdp,
                     ecn_threshold_bytes=ecn_threshold_bytes)
        for i, rate in enumerate(rates))
    return TopologySpec(nodes=nodes, links=links)
