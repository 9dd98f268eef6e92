"""Append-only JSONL catalog: what the store was asked, and when.

The object store answers "is this exact experiment cached?"; the
catalog answers the human questions around it — how many points did
the last sweep actually simulate, which CCAs dominate the cache, did
the warm rerun really execute zero simulations. One JSON line per
lookup event:

    {"key": "ab12...", "event": "hit", "task": "...:run_rate_delay_point",
     "backend": "serial", "wall_s": 0.0012, "ts": 1722950000.0,
     "summary": {"cca": "bbr", "rate_mbps": 2.0, "elements": [],
                 "flows": 1, "seed": 11}}

Events: ``hit`` (served from cache), ``miss`` (simulated and stored),
``fail`` (simulated, failed, *not* stored). Lines are appended under an
advisory lock so pool workers never interleave; a corrupt line (torn
write from a killed process) is skipped on read, never fatal, and the
next append seals it with a newline so later records stay parseable.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence

from .fsio import FileIO, tail_sealed
from .locks import advisory_lock

#: The lookup events a catalog line may carry.
EVENTS = ("hit", "miss", "fail")


def summarize_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Extract the queryable facts from one grid point's params.

    Sweep/run params carry a serialized
    :class:`~repro.spec.ScenarioSpec` under ``"scenario"``; from it we
    lift the CCA names, bottleneck rate and the kinds of path element
    (jitter, loss, outages...) on any flow or on the link. Anything
    unrecognized degrades to a minimal summary — the catalog must never
    make an experiment fail.
    """
    summary: Dict[str, Any] = {}
    scenario = params.get("scenario")
    if isinstance(scenario, str):
        summary["cca"] = scenario  # e.g. a named starve scenario
        return summary
    if not isinstance(scenario, Mapping):
        return summary
    try:
        flows = scenario.get("flows", [])
        ccas = [f.get("cca", {}).get("name", "?") for f in flows]
        link = scenario.get("link") or {}
        elements = link.get("elements", [])
        for f in flows:
            elements = (elements + f.get("ack_elements", [])
                        + f.get("data_elements", []))
        rate = link.get("rate")
        summary = {
            "cca": "+".join(ccas),
            "flows": len(flows),
            "elements": sorted({e.get("kind", "?") for e in elements}),
            "seed": scenario.get("seed"),
        }
        if isinstance(rate, (int, float)):
            summary["rate_mbps"] = round(rate * 8e-6, 9)
        if "duration" in params:
            summary["duration"] = params["duration"]
    except (AttributeError, TypeError):  # malformed spec: stay minimal
        return {}
    return summary


class Catalog:
    """The append-only JSONL manifest beside a :class:`ResultStore`."""

    def __init__(self, path: str, fs: Optional[FileIO] = None) -> None:
        self.path = os.path.abspath(path)
        #: The filesystem seam (shared with the owning store, so chaos
        #: injected there also reaches catalog appends).
        self.fs = fs if fs is not None else FileIO()
        self._lock_path = self.path + ".lock"

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def record(self, key: str, event: str, task: str = "",
               backend: str = "", wall_s: float = 0.0,
               summary: Optional[Mapping[str, Any]] = None) -> None:
        """Append one lookup event (atomic line under advisory lock)."""
        self.append([self.line(key, event, task=task, backend=backend,
                               wall_s=wall_s, summary=summary)])

    @staticmethod
    def line(key: str, event: str, task: str = "", backend: str = "",
             wall_s: float = 0.0,
             summary: Optional[Mapping[str, Any]] = None) -> str:
        """One lookup event as a catalog line, stamped now."""
        if event not in EVENTS:
            raise ValueError(f"event must be one of {EVENTS}, got {event!r}")
        return json.dumps({
            "key": key, "event": event, "task": task,
            "backend": backend, "wall_s": round(wall_s, 6),
            "ts": round(time.time(), 3),
            "summary": dict(summary or {}),
        }, sort_keys=True)

    def append(self, lines: Sequence[str]) -> None:
        """Append :meth:`line` results in one write under one lock, so
        a grid's hits cost one append, not one per point."""
        if not lines:
            return
        with advisory_lock(self._lock_path):
            # A writer killed mid-append can leave a torn final line
            # with no trailing newline. Appending straight after it
            # would weld this record onto the garbage and lose both;
            # sealing the tail first confines the damage to the torn
            # line (which entries() already skips).
            prefix = "" if self._tail_sealed() else "\n"
            self.fs.append(self.path, prefix + "\n".join(lines) + "\n")

    def _tail_sealed(self) -> bool:
        """True when the file is empty/missing or ends in a newline."""
        return tail_sealed(self.path)

    def seal(self) -> None:
        """Seal a torn trailing line now, without waiting for a write.

        The repair-path counterpart of seal-on-next-append: a store
        ``verify(repair=True)`` calls this so a catalog whose last
        writer was killed mid-append is immediately safe to append to
        and its torn line is confined, even if no new lookup ever
        happens.
        """
        with advisory_lock(self._lock_path):
            if not self._tail_sealed():
                self.fs.append(self.path, "\n")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Yield catalog lines oldest-first, skipping corrupt ones."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write: a miss for the reader, not a crash
            if isinstance(entry, dict) and "key" in entry:
                yield entry

    def query(self, event: Optional[str] = None,
              cca: Optional[str] = None,
              rate_mbps: Optional[float] = None,
              element: Optional[str] = None,
              task: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """Filter entries by event / CCA substring / rate / element kind."""
        for entry in self.entries():
            summary = entry.get("summary") or {}
            if event is not None and entry.get("event") != event:
                continue
            if task is not None and task not in str(entry.get("task", "")):
                continue
            if cca is not None and cca not in str(summary.get("cca", "")):
                continue
            if rate_mbps is not None:
                got = summary.get("rate_mbps")
                if not (isinstance(got, (int, float))
                        and math.isclose(got, rate_mbps, rel_tol=1e-9)):
                    continue
            if element is not None \
                    and element not in (summary.get("elements") or []):
                continue
            yield entry

    def counts(self) -> Dict[str, int]:
        """Total events by kind, e.g. ``{"hit": 12, "miss": 3}``."""
        return dict(Counter(e.get("event", "?") for e in self.entries()))

    def last_use_by_key(self) -> Dict[str, float]:
        """Most recent hit/miss timestamp per cache key.

        The GC age/LRU policy's notion of "recently used". ``fail``
        events don't count (nothing was stored), and lines from before
        the ``ts`` field existed are simply absent — the store falls
        back to file mtime for those keys.
        """
        last: Dict[str, float] = {}
        for entry in self.entries():
            ts = entry.get("ts")
            if entry.get("event") == "fail" \
                    or not isinstance(ts, (int, float)):
                continue
            key = str(entry["key"])
            if ts > last.get(key, float("-inf")):
                last[key] = float(ts)
        return last

    def __repr__(self) -> str:
        return f"Catalog({self.path!r})"
