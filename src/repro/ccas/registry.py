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

Seeding: entries whose constructor accepts a ``seed`` argument are
flagged ``seeded``; :func:`create` injects a caller-provided seed into
those unless the kwargs already pin one explicitly. This is how a
:class:`~repro.spec.scenario.ScenarioSpec` root seed reaches BBR's
probe-phase RNG and Allegro's RCT order deterministically.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .. import units
from ..errors import ConfigurationError
from .allegro import Allegro
from .bbr import BBR
from .copa import Copa
from .cubic import Cubic
from .delay_aimd import DelayAimd
from .ecn import EcnAimd
from .fast import FastTCP
from .jitteraware import JitterAware
from .ledbat import Ledbat
from .reno import NewReno
from .vegas import Vegas
from .verus import Verus
from .vivace import Vivace
from .windowtarget import WindowTarget


@dataclass(frozen=True)
class CCAEntry:
    """One registry row: a constructor plus metadata for spec building."""

    name: str
    factory: Callable[..., object]
    #: True when the constructor accepts a ``seed`` kwarg.
    seeded: bool
    #: Default kwargs merged under caller kwargs (e.g. Algorithm 1's
    #: required ``jitter_bound``).
    defaults: Dict[str, Any] = field(default_factory=dict)
    doc: str = ""


_REGISTRY: Dict[str, CCAEntry] = {}


def register(name: str, factory: Callable[..., object],
             defaults: Optional[Dict[str, Any]] = None,
             seeded: Optional[bool] = None, doc: str = "") -> None:
    """Register ``factory`` under ``name`` (detects ``seed`` support)."""
    if name in _REGISTRY:
        raise ConfigurationError(f"CCA {name!r} is already registered")
    if seeded is None:
        try:
            params = inspect.signature(factory).parameters
            seeded = "seed" in params
        except (TypeError, ValueError):  # builtins without signatures
            seeded = False
    _REGISTRY[name] = CCAEntry(name=name, factory=factory, seeded=seeded,
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
    kwargs = dict(reg.defaults)
    kwargs.update(params or {})
    if reg.seeded and seed is not None and "seed" not in kwargs:
        kwargs["seed"] = seed
    try:
        return reg.factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad params for CCA {name!r}: {exc}")


register("vegas", Vegas, doc="TCP Vegas (delay-convergent archetype)")
register("fast", FastTCP, doc="FAST TCP")
register("copa", Copa, doc="Copa (NSDI 2018) in default mode")
register("bbr", BBR, doc="BBR v1 (seeded PROBE_BW phase)")
register("vivace", Vivace, doc="PCC Vivace (gradient utility)")
register("allegro", Allegro, doc="PCC Allegro (seeded RCT order)")
register("reno", NewReno, doc="TCP NewReno (loss-based baseline)")
register("cubic", Cubic, doc="TCP Cubic (loss-based baseline)")
register("ledbat", Ledbat, doc="LEDBAT scavenger (RFC 6817)")
register("jitter-aware", JitterAware,
         defaults={"jitter_bound": units.ms(10)},
         doc="the paper's Algorithm 1 (jitter-resilient by design)")
register("delay-aimd", DelayAimd, doc="Section 6.2 AIMD-on-delay")
register("ecn-aimd", EcnAimd, doc="Section 6.4 ECN-signal AIMD")
register("verus", Verus, doc="Verus (delay-profile)")
register("window-target", WindowTarget,
         doc="standing-queue window target (Theorem 1 packet replay)")
