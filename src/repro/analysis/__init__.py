"""Analysis utilities: sweeps, harness, backends, reports, scenarios."""

from .backends import (PointOutcome, ProcessPoolBackend, SerialBackend,
                       execute_point, make_backend)
from .competition import (CompetitionMatrix, competition_matrix,
                          run_competition_point)
from .diagnostics import (load_bundle, replay_bundle, write_crash_bundle)
from .harness import (ResilientSweep, RunBudget, RunFailure, SweepOutcome,
                      describe_failures)
from .report import describe_run, flow_table, format_table, rate_delay_ascii
from .sweep import RateDelayCurve, RateDelayPoint, sweep_rate_delay

__all__ = [
    "CompetitionMatrix", "PointOutcome", "ProcessPoolBackend",
    "RateDelayCurve", "RateDelayPoint", "ResilientSweep", "RunBudget",
    "RunFailure", "SerialBackend", "SweepOutcome",
    "competition_matrix", "run_competition_point",
    "describe_failures", "describe_run", "execute_point", "flow_table",
    "format_table", "load_bundle", "make_backend", "replay_bundle",
    "write_crash_bundle", "rate_delay_ascii", "sweep_rate_delay",
]
