"""repro: reproduction of "Starvation in End-to-End Congestion Control".

(Arun, Alizadeh, Balakrishnan — SIGCOMM 2022.)

Layout:
    repro.core     — the paper's theory (Definitions 1-4, Theorems 1-3,
                     pigeonhole + emulation constructions, rate-delay maps).
    repro.model    — fluid-flow network model and deterministic fluid CCAs.
    repro.sim      — packet-level discrete-event simulator (Mahimahi
                     substitute): FIFO bottleneck, jitter, loss, hosts.
    repro.ccas     — packet-level CCAs: Vegas, FAST, Copa, BBR, PCC
                     Vivace/Allegro, NewReno, Cubic, LEDBAT, Algorithm 1.
    repro.analysis — Figure 3 sweeps, the Section 5 scenario library,
                     competition matrices, ASCII reporting.
    repro.units    — Mbit/s / ms / bytes conversions.

Quickstart:

    >>> from repro import units
    >>> from repro.spec import CCASpec, FlowSpec, LinkSpec, ScenarioSpec
    >>> stats = ScenarioSpec(
    ...     link=LinkSpec(rate=units.mbps(12)),
    ...     flows=(FlowSpec(cca=CCASpec("vegas"), rm=units.ms(40)),),
    ... ).run(duration=5.0).stats
"""

from . import units
from .errors import (ConfigurationError, ConvergenceError,
                     EmulationInfeasibleError, ReproError, SimulationError)

#: Single source of truth for the package version: pyproject.toml reads
#: it via ``[tool.setuptools.dynamic]``, and the result store bakes it
#: into every cache key's code fingerprint (repro.store.keys), so
#: bumping it invalidates all cached experiment results at once.
__version__ = "1.1.0"

__all__ = [
    "ConfigurationError", "ConvergenceError", "EmulationInfeasibleError",
    "ReproError", "SimulationError", "__version__", "units",
]
