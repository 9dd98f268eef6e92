"""Analysis utilities: metrics, sweeps, harness, backends, scenarios."""

from .backends import (PointOutcome, ProcessPoolBackend, SerialBackend,
                       execute_point, make_backend)
from .competition import (CompetitionMatrix, competition_matrix,
                          run_competition_point)
from .diagnostics import (load_bundle, replay_bundle, write_crash_bundle)
from .harness import (ResilientSweep, RunBudget, RunFailure, SweepOutcome,
                      describe_failures)
from .metrics import (loss_rate, mean_rtt_ms, queueing_delay_ms,
                      throughputs_mbps, utilization)
from .report import (comparison_line, describe_run, flow_table,
                     format_table, rate_delay_ascii)
from .sweep import (RateDelayCurve, RateDelayPoint, log_rate_grid,
                    sweep_rate_delay)

__all__ = [
    "CompetitionMatrix", "PointOutcome", "ProcessPoolBackend",
    "RateDelayCurve", "RateDelayPoint", "ResilientSweep", "RunBudget",
    "RunFailure", "SerialBackend", "SweepOutcome", "comparison_line",
    "competition_matrix", "run_competition_point",
    "describe_failures", "describe_run", "execute_point", "flow_table",
    "format_table", "load_bundle", "log_rate_grid", "loss_rate",
    "make_backend", "replay_bundle", "write_crash_bundle",
    "mean_rtt_ms", "queueing_delay_ms", "rate_delay_ascii",
    "sweep_rate_delay", "throughputs_mbps", "utilization",
]
