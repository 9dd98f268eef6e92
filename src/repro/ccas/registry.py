"""Name-based CCA registry: the bridge from declarative specs to code.

:class:`~repro.spec.scenario.CCASpec` (and the CLI's flow-spec strings)
name CCAs by string; this module resolves those names to constructors.
Keeping the mapping here — instead of ad-hoc dicts in the CLI and each
benchmark — gives every consumer the same catalog and lets serialized
scenarios cross process boundaries: a worker process rebuilds the CCA
from ``(name, kwargs)`` without ever pickling a closure.

Registered names (see the table at the bottom of the module):
``vegas``, ``fast``, ``copa``, ``bbr``, ``vivace``, ``allegro``,
``reno``, ``cubic``, ``ledbat``, ``jitter-aware`` (the paper's
Algorithm 1), plus the extension CCAs ``delay-aimd``, ``ecn-aimd``,
``verus`` and ``window-target`` (the packet twin of the fluid CCA the
theorem constructions run).

Each row names where its class lives (``"repro.ccas.copa:Copa"``) and
:func:`repro.resolve` imports it on first use, so a process compiles
only the CCAs it builds.

Seeding: a row whose constructor accepts a ``seed`` argument is
``seeded`` (read off the signature when the row resolves);
:func:`create` injects a caller-provided seed into those unless the
kwargs already pin one explicitly. This is how a
:class:`~repro.spec.scenario.ScenarioSpec` root seed reaches BBR's
probe-phase RNG and Allegro's RCT order deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import resolve, units
from ..errors import ConfigurationError


@dataclass(frozen=True)
class CCAEntry:
    """One registry row: the ``"package.module:QualName"`` path of the
    constructor, plus metadata for spec building."""

    name: str
    path: str
    #: Default kwargs merged under caller kwargs (e.g. Algorithm 1's
    #: required ``jitter_bound``).
    defaults: Dict[str, Any] = field(default_factory=dict)
    doc: str = ""


_REGISTRY: Dict[str, CCAEntry] = {}


def register(name: str, path: str,
             defaults: Optional[Dict[str, Any]] = None,
             doc: str = "") -> None:
    """Register the constructor at ``path`` under ``name``."""
    if name in _REGISTRY:
        raise ConfigurationError(f"CCA {name!r} is already registered")
    _REGISTRY[name] = CCAEntry(name=name, path=path,
                               defaults=dict(defaults or {}), doc=doc)


def entry(name: str) -> CCAEntry:
    """Look up a registry entry, with a helpful error for bad names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown CCA {name!r}; registered: {', '.join(names())}")


def names() -> List[str]:
    """All registered CCA names, sorted."""
    return sorted(_REGISTRY)


def create(name: str, params: Optional[Dict[str, Any]] = None,
           seed: Optional[int] = None) -> object:
    """Instantiate the CCA ``name`` with ``params`` kwargs.

    ``seed`` is injected into seeded entries unless ``params`` already
    pins one — an explicit ``{"seed": ...}`` in a spec always wins over
    the derived scenario seed.
    """
    reg = entry(name)
    factory, seeded = resolve(reg.path)
    kwargs = dict(reg.defaults)
    kwargs.update(params or {})
    if seeded and seed is not None and "seed" not in kwargs:
        kwargs["seed"] = seed
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad params for CCA {name!r}: {exc}")


register("vegas", "repro.ccas.vegas:Vegas",
         doc="TCP Vegas (delay-convergent archetype)")
register("fast", "repro.ccas.fast:FastTCP", doc="FAST TCP")
register("copa", "repro.ccas.copa:Copa",
         doc="Copa (NSDI 2018) in default mode")
register("bbr", "repro.ccas.bbr:BBR", doc="BBR v1 (seeded PROBE_BW phase)")
register("vivace", "repro.ccas.vivace:Vivace",
         doc="PCC Vivace (gradient utility)")
register("allegro", "repro.ccas.allegro:Allegro",
         doc="PCC Allegro (seeded RCT order)")
register("reno", "repro.ccas.reno:NewReno",
         doc="TCP NewReno (loss-based baseline)")
register("cubic", "repro.ccas.cubic:Cubic",
         doc="TCP Cubic (loss-based baseline)")
register("ledbat", "repro.ccas.ledbat:Ledbat",
         doc="LEDBAT scavenger (RFC 6817)")
register("jitter-aware", "repro.ccas.jitteraware:JitterAware",
         defaults={"jitter_bound": units.ms(10)},
         doc="the paper's Algorithm 1 (jitter-resilient by design)")
register("delay-aimd", "repro.ccas.delay_aimd:DelayAimd",
         doc="Section 6.2 AIMD-on-delay")
register("ecn-aimd", "repro.ccas.ecn:EcnAimd",
         doc="Section 6.4 ECN-signal AIMD")
register("verus", "repro.ccas.verus:Verus", doc="Verus (delay-profile)")
register("window-target", "repro.ccas.windowtarget:WindowTarget",
         doc="standing-queue window target (Theorem 1 packet replay)")
