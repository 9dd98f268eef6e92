"""Analysis utilities: sweeps, harness, backends, reports, scenarios.

Competition matrices (:mod:`repro.analysis.competition`) and crash
bundles (:mod:`repro.analysis.diagnostics`) are not re-exported: import
the submodule, so a sweep never compiles them.
"""

from .backends import (PointOutcome, ProcessPoolBackend, SerialBackend,
                       execute_point, make_backend)
from .harness import (ResilientSweep, RunBudget, RunFailure, SweepOutcome,
                      describe_failures)
from .report import describe_run, flow_table, format_table, rate_delay_ascii
from .sweep import RateDelayCurve, RateDelayPoint, sweep_rate_delay

__all__ = [
    "PointOutcome", "ProcessPoolBackend", "RateDelayCurve",
    "RateDelayPoint", "ResilientSweep", "RunBudget", "RunFailure",
    "SerialBackend", "SweepOutcome", "describe_failures", "describe_run",
    "execute_point", "flow_table", "format_table", "make_backend",
    "rate_delay_ascii", "sweep_rate_delay",
]
