"""Content digests of a finished run: raw traces and summary.

Two runs of one spec — twice in a row, on two backends, before and
after an optimization — must produce the same floats in the same order.
:func:`run_digests` makes that checkable as two SHA-256 strings. The
golden-trace battery (``tests/golden.py``), the fuzz oracle's
run-twice / backend-identity checks and the topology equivalence tests
all compare through it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List


def _norm(value: Any) -> Any:
    """Digest normalization: every number to float, None passes through.

    Recorders may hold ints (byte counters) or ``None`` (pacing rate of
    a cwnd-only CCA). Storage-format changes (list of Optional vs
    ``array('d')`` with NaN) must not change the digest, so ``None``
    normalizes to NaN before hashing.
    """
    if value is None:
        return float("nan")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_norm(v) for v in value]
    if isinstance(value, dict):
        return {k: _norm(v) for k, v in value.items()}
    return value


def digest(value: Any) -> str:
    """SHA-256 over canonical (sorted-keys, NaN-normalized) JSON."""
    text = json.dumps(_norm(value), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _series(values: Iterable[Any]) -> List[float]:
    return [float("nan") if v is None else float(v) for v in values]


def run_digests(result: Any) -> Dict[str, str]:
    """Trace and summary digests of a finished run.

    Shared by the golden battery and the fuzz oracle's run-twice
    determinism / backend-identity checks: two runs (or two backends)
    given the same spec must produce identical digests.
    """
    traces: Dict[str, Any] = {}
    for flow in result.scenario.flows:
        rec = flow.recorder
        traces[f"flow{flow.flow_id}"] = {
            "rtt_times": _series(rec.rtt_times),
            "rtt_values": _series(rec.rtt_values),
            "sample_times": _series(rec.sample_times),
            "cwnd_values": _series(rec.cwnd_values),
            "pacing_values": _series(rec.pacing_values),
            "delivered_values": _series(rec.delivered_values),
            "received_values": _series(rec.received_values),
        }
    # First queue keeps the historical "queue" key so every dumbbell
    # digest is byte-identical to pre-topology captures; extra
    # bottlenecks (multi-hop scenarios only) digest as "queue1", ...
    for i, qrec in enumerate(result.scenario.queue_recorders):
        if qrec is None:
            continue
        traces["queue" if i == 0 else f"queue{i}"] = {
            "sample_times": _series(qrec.sample_times),
            "backlog_values": _series(qrec.backlog_values),
        }
    return {
        "traces": digest(traces),
        "summary": digest(result.summary()),
    }
