"""In-memory span recorder for the traced run.

Spans are recorded from ``bench/`` only: :meth:`Tracer.wrap` replaces a
public function or method of the program with a wrapper that opens a
span around the call, so the program runs its own code unchanged
between layer boundaries. Nothing is written until the run ends.

A span is ``(name, op, thread, start, end, cpu_start, cpu_end,
parent)``. Its layer is the first dotted component of its name
(``sim.run`` -> ``sim``). A span opened on a thread with no open span
of its own (the daemon's dispatcher and HTTP handler threads) is
parented to whatever span the op's own thread has open at that moment:
that is the call that waits for it.
"""

from __future__ import annotations

import functools
import json
import threading
from contextlib import contextmanager
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "op", "thread", "start", "end", "cpu_start",
                 "cpu_end", "parent", "index")

    def __init__(self, name: str, op: int, thread: int,
                 parent: Optional[int], index: int) -> None:
        self.name = name
        self.op = op
        self.thread = thread
        self.parent = parent
        self.index = index
        self.start = perf_counter()
        self.cpu_start = thread_time()
        self.end = self.start
        self.cpu_end = self.cpu_start

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def busy(self) -> float:
        """CPU seconds the span's own thread spent inside it."""
        return self.cpu_end - self.cpu_start


class Tracer:
    """Collects spans and counts; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        #: Wrappers record only while an op is open, so fixture and
        #: checking code that calls the same functions stays out.
        self.enabled = False
        self.op = 0
        self._home = threading.get_ident()
        self._stacks: Dict[int, List[Span]] = {}
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    @contextmanager
    def op_span(self, name: str) -> Iterator[Span]:
        """The root span of one timed op; its id is ``self.op``."""
        self.op += 1
        self.enabled = True
        try:
            with self.span(name) as span:
                yield span
        finally:
            self.enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent: Optional[int] = stack[-1].index
        else:
            home = self._stacks.get(self._home)
            parent = home[-1].index if home else None
        with self._lock:
            span = Span(name, self.op, thread, parent, len(self.spans))
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            span.cpu_end = thread_time()
            stack.pop()
            if not stack and thread != self._home:
                self._stacks.pop(thread, None)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers ------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[..., None]] = None) -> None:
        """Open span ``name`` around every call of ``owner.attr``.

        ``after(result, *args)`` runs inside the span once the call has
        returned; it is where counts are read off the objects the call
        produced. Static and class methods keep their kind.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (staticmethod,
                                             classmethod)) else None
        func = raw.__func__ if kind else raw

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return func(*args, **kwargs)
            with self.span(name):
                result = func(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result

        setattr(owner, attr, kind(traced) if kind else traced)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: its wall time minus what its children cover.

        Children are clipped to the parent's interval and their union
        is taken, so concurrent children on other threads are not
        subtracted twice.
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent]
                lo = max(span.start, parent.start)
                hi = min(span.end, parent.end)
                if hi > lo:
                    children.setdefault(span.parent, []).append((lo, hi))
        result = []
        for span in self.spans:
            covered, edge = 0.0, span.start
            for lo, hi in sorted(children.get(span.index, ())):
                if hi > edge:
                    covered += hi - max(lo, edge)
                    edge = hi
            result.append(span.wall - covered)
        return result

    def write(self, path: str, summary: Dict[str, Any]) -> None:
        self_times = self.self_times()
        doc = {
            "summary": summary,
            "counts": self.counts,
            "spans": [{
                "id": span.index, "parent": span.parent, "op": span.op,
                "name": span.name, "thread": span.thread,
                "start": span.start, "end": span.end,
                "busy": span.busy, "self": self_times[span.index],
            } for span in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
