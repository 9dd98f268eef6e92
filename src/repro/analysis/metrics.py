"""Run-level metrics shared by benches and examples."""

from __future__ import annotations

import math
from typing import List, Sequence

from .. import units
from ..sim.runner import FlowStats


def utilization(stats: Sequence[FlowStats], link_rate: float) -> float:
    """Aggregate throughput over capacity."""
    return sum(s.throughput for s in stats) / link_rate


def throughputs_mbps(stats: Sequence[FlowStats]) -> List[float]:
    return [units.to_mbps(s.throughput) for s in stats]


def mean_rtt_ms(stats: Sequence[FlowStats]) -> List[float]:
    return [s.mean_rtt * 1e3 for s in stats]


def loss_rate(stats: FlowStats, duration: float, mss: int = 1500) -> float:
    """Approximate packet loss rate over the run."""
    delivered_packets = stats.goodput * duration / mss
    total = delivered_packets + stats.losses
    if total <= 0:
        return 0.0
    return stats.losses / total


def queueing_delay_ms(stats: FlowStats, rm: float) -> float:
    """Mean queueing delay above the propagation floor, in ms."""
    if math.isnan(stats.mean_rtt):
        return math.nan
    return max(stats.mean_rtt - rm, 0.0) * 1e3
