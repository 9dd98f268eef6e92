"""ASCII reporting helpers used by benches and examples.

Benches print the paper's reported numbers next to ours so a reader can
eyeball whether the *shape* reproduces (who wins, by what factor).
"""

from __future__ import annotations

import math
from typing import Sequence

from .. import units
from ..sim.runner import FlowStats, RunResult


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render a simple padded ASCII table."""
    columns = [list(map(str, col)) for col in
               zip(headers, *rows)] if rows else [[h] for h in headers]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w)
                               for cell, w in zip(row, widths)))
    return "\n".join(lines)


def flow_table(stats: Sequence[FlowStats]) -> str:
    """Per-flow summary table in the units the paper reports."""
    rows = []
    for s in stats:
        rows.append([
            s.label,
            f"{units.to_mbps(s.throughput):.2f}",
            f"{s.share:.1%}",
            f"{s.mean_rtt * 1e3:.1f}" if not math.isnan(s.mean_rtt)
            else "-",
            s.losses,
        ])
    return format_table(
        ["flow", "tput (Mbit/s)", "share", "mean RTT (ms)", "losses"],
        rows)


#: The s levels at which :func:`describe_run` reads Definition 2.
FAIRNESS_LEVELS = (2, 5, 10, 50, 100)


def describe_run(title: str, result: RunResult, paper_numbers: str = "",
                 levels: Sequence[float] = FAIRNESS_LEVELS) -> str:
    """A multi-line run report: title, flow table, ratio, utilization,
    and Definition 2 at each s in ``levels``."""
    lines = [title]
    if paper_numbers:
        lines.append(f"  paper: {paper_numbers}")
    lines.append(flow_table(result.stats))
    ratio = result.throughput_ratio()
    ratio_text = "inf" if math.isinf(ratio) else f"{ratio:.2f}"
    lines.append(f"  throughput ratio: {ratio_text}   "
                 f"utilization: {result.utilization():.1%}")
    verdicts = []
    for s in levels:
        verdict = result.fairness(s)
        if verdict.is_s_fair:
            verdicts.append(f"s={s} fair from {verdict.satisfied_from:.2f} s")
        else:
            verdicts.append(
                f"s={s} starved from {verdict.violated_from:.2f} s")
    lines.append("  Definition 2: " + "; ".join(verdicts))
    return "\n".join(lines)


def rate_delay_ascii(curve, width: int = 48) -> str:
    """Rough ASCII rendering of a Figure 3 panel (delay vs rate)."""
    lines = [f"rate-delay curve: {curve.label} (Rm = {curve.rm*1e3:.0f} ms)"]
    d_hi = max(p.d_max for p in curve.points)
    for p in curve.points:
        span = max(d_hi - curve.rm, 1e-9)
        lo = int((p.d_min - curve.rm) / span * width)
        hi = max(int((p.d_max - curve.rm) / span * width), lo + 1)
        bar = " " * lo + "#" * (hi - lo)
        lines.append(f"{units.to_mbps(p.link_rate):8.2f} Mbit/s |{bar}")
    lines.append(f"{'':>16} Rm{'':->{width - 2}}{d_hi*1e3:.0f}ms")
    return "\n".join(lines)
