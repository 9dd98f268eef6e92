"""Per-flow statistics of a finished run.

:meth:`repro.spec.ScenarioSpec.run` is the one build-run-summarize call
for packet-level experiments; it builds through this module's
``build_topology`` and returns a :class:`RunResult`:

    >>> from repro import units
    >>> from repro.spec import CCASpec, FlowSpec, LinkSpec, ScenarioSpec
    >>> result = ScenarioSpec(
    ...     link=LinkSpec(rate=units.mbps(12)),
    ...     flows=(FlowSpec(cca=CCASpec("vegas"), rm=units.ms(40)),),
    ... ).run(duration=5.0)
    >>> result.stats[0].throughput > 0
    True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .. import units
from ..core import fairness
from .network import Scenario, build_topology  # noqa: F401 (ScenarioSpec.run)


@dataclass
class FlowStats:
    """Summary of one flow after a run.

    ``throughput`` follows the paper's Definition: bytes acknowledged over
    the measurement window divided by its length (bytes/s).
    """

    flow_id: int
    label: str
    throughput: float
    goodput: float
    mean_rtt: float
    min_rtt: float
    max_rtt: float
    losses: int
    retransmits: int
    timeouts: int
    share: float = 0.0

    @property
    def rtt_range(self) -> Tuple[float, float]:
        return (self.min_rtt, self.max_rtt)


@dataclass
class RunResult:
    """Everything a caller may want after a scenario run."""

    scenario: Scenario
    stats: List[FlowStats]
    duration: float
    warmup: float

    @property
    def throughputs(self) -> List[float]:
        return [s.throughput for s in self.stats]

    def throughput_ratio(self) -> float:
        """Faster flow's throughput over the slower's (>= 1; ``inf`` for
        total starvation), by :func:`repro.core.fairness.throughput_ratio`."""
        return fairness.throughput_ratio(self.throughputs)

    def utilization(self) -> float:
        """Aggregate delivered rate over the (first) bottleneck rate."""
        total = sum(self.throughputs)
        return total / self.scenario.queue.rate

    def summary(self) -> dict:
        """A dictionary digest convenient for printing or asserting on."""
        return {
            "throughputs_mbps": [units.to_mbps(s.throughput)
                                 for s in self.stats],
            "ratio": self.throughput_ratio(),
            "utilization": self.utilization(),
            "losses": [s.losses for s in self.stats],
            "mean_rtt_ms": [s.mean_rtt * 1e3 for s in self.stats],
        }


def summarize(scenario: Scenario, duration: float,
              warmup: float = 0.0) -> List[FlowStats]:
    """Compute :class:`FlowStats` over ``[warmup, duration]``."""
    stats: List[FlowStats] = []
    total = 0.0
    for flow in scenario.flows:
        throughput = flow.recorder.throughput_between(warmup, duration)
        mean_rtt, min_rtt, max_rtt = flow.recorder.rtt_window_stats(
            warmup, duration)
        # Goodput over the same [warmup, duration] window as throughput;
        # a run shorter than one sample interval has no receiver samples
        # and falls back to the whole-run average.
        goodput = flow.recorder.goodput_between(warmup, duration)
        if not flow.recorder.received_values:
            goodput = flow.receiver.received_bytes / duration
        stats.append(FlowStats(
            flow_id=flow.flow_id,
            label=flow.label,
            throughput=throughput,
            goodput=goodput,
            mean_rtt=mean_rtt,
            min_rtt=min_rtt,
            max_rtt=max_rtt,
            losses=flow.sender.losses_detected,
            retransmits=flow.sender.retransmits,
            timeouts=flow.sender.timeouts,
        ))
        total += throughput
    if total > 0:
        for stat in stats:
            stat.share = stat.throughput / total
    return stats
