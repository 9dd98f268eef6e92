"""Declarative scenario specification layer (the "what to run").

One canonical, JSON-round-trippable scenario description consumed by
the CLI, the library, sweeps, and benchmarks:

    >>> from repro import units
    >>> from repro.spec import (CCASpec, FlowSpec, LinkSpec,
    ...                         ScenarioSpec)
    >>> spec = ScenarioSpec(
    ...     link=LinkSpec(rate=units.mbps(12)),
    ...     flows=(FlowSpec(cca=CCASpec("vegas"), rm=units.ms(40)),),
    ...     seed=7)
    >>> spec == ScenarioSpec.loads(spec.dumps())
    True
    >>> result = spec.run(duration=5.0)

Specs are pure data, so they pickle across process boundaries — the
foundation of :mod:`repro.analysis.backends` parallel sweeps — and a
single root ``seed`` deterministically derives every component RNG
seed (see :mod:`repro.spec.seeds`).
"""

from .elements import ELEMENTS, ElementSpec
from .scenario import (SPEC_VERSION, CCASpec, FlowSpec, LinkSpec,
                       ScenarioSpec, single_flow_scenario)
from .seeds import derive_seed
from .topology import (NodeSpec, TopoLinkSpec, TopologySpec,
                       parking_lot_topology)

__all__ = [
    "CCASpec", "ELEMENTS", "ElementSpec", "FlowSpec", "LinkSpec",
    "NodeSpec", "SPEC_VERSION", "ScenarioSpec", "TopoLinkSpec",
    "TopologySpec", "derive_seed", "parking_lot_topology",
    "single_flow_scenario",
]
