"""Trace export: turn recorders into TSV files / numpy arrays.

Lets downstream users plot runs with their own tooling:

    result = spec.run()                   # or repro.sim.run(...)
    export_run_tsv(result, "out/")        # one TSV per flow + queue
    arrays = flow_arrays(result.scenario.flows[0].recorder)
"""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from ..sim.recorder import FlowRecorder, QueueRecorder
from ..sim.runner import RunResult


def flow_arrays(recorder: FlowRecorder) -> Dict[str, np.ndarray]:
    """Recorder time series as numpy arrays.

    Keys: ``rtt_times``, ``rtt_values``, ``sample_times``,
    ``cwnd_values``, ``pacing_values`` (NaN where unpaced),
    ``delivered_values``, ``rate_values`` (derivative of delivered).
    """
    sample_times = np.asarray(recorder.sample_times, dtype=float)
    delivered = np.asarray(recorder.delivered_values, dtype=float)
    pacing = np.array([float("nan") if p is None else p
                       for p in recorder.pacing_values], dtype=float)
    if len(sample_times) > 1:
        rates = np.gradient(delivered, sample_times)
    else:
        rates = np.zeros_like(delivered)
    return {
        "rtt_times": np.asarray(recorder.rtt_times, dtype=float),
        "rtt_values": np.asarray(recorder.rtt_values, dtype=float),
        "sample_times": sample_times,
        "cwnd_values": np.asarray(recorder.cwnd_values, dtype=float),
        "pacing_values": pacing,
        "delivered_values": delivered,
        "rate_values": rates,
    }


def queue_arrays(recorder: QueueRecorder) -> Dict[str, np.ndarray]:
    """Queue occupancy time series as numpy arrays."""
    return {
        "sample_times": np.asarray(recorder.sample_times, dtype=float),
        "backlog_bytes": np.asarray(recorder.backlog_values,
                                    dtype=float),
    }


def write_tsv(path: str, columns: Dict[str, np.ndarray]) -> None:
    """Write equal-length columns as a tab-separated file with header."""
    names = list(columns)
    lengths = {len(columns[name]) for name in names}
    if len(lengths) != 1:
        raise ValueError(f"column lengths differ: "
                         f"{ {n: len(columns[n]) for n in names} }")
    with open(path, "w") as handle:
        handle.write("\t".join(names) + "\n")
        for row in zip(*(columns[name] for name in names)):
            handle.write("\t".join(f"{value:.9g}" for value in row)
                         + "\n")


def export_run_tsv(result: RunResult, directory: str,
                   prefix: Optional[str] = None) -> Dict[str, str]:
    """Write one TSV per flow (RTT + cwnd series) plus the queue series.

    Returns a mapping of logical name -> written path.
    """
    os.makedirs(directory, exist_ok=True)
    prefix = prefix or "run"
    written: Dict[str, str] = {}
    for flow in result.scenario.flows:
        arrays = flow_arrays(flow.recorder)
        label = flow.config.label or f"flow{flow.flow_id}"
        safe = label.replace("/", "_").replace(" ", "_")
        rtt_path = os.path.join(directory, f"{prefix}-{safe}-rtt.tsv")
        write_tsv(rtt_path, {"time": arrays["rtt_times"],
                             "rtt": arrays["rtt_values"]})
        written[f"{label}:rtt"] = rtt_path
        cwnd_path = os.path.join(directory, f"{prefix}-{safe}-cwnd.tsv")
        write_tsv(cwnd_path, {"time": arrays["sample_times"],
                              "cwnd_bytes": arrays["cwnd_values"],
                              "delivered_bytes":
                                  arrays["delivered_values"],
                              "rate_bytes_per_s": arrays["rate_values"]})
        written[f"{label}:cwnd"] = cwnd_path
    queue_path = os.path.join(directory, f"{prefix}-queue.tsv")
    write_tsv(queue_path,
              queue_arrays(result.scenario.queue_recorder))
    written["queue"] = queue_path
    return written
