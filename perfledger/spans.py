"""Spans recorded from the benchmark's own files, around calls into the repo.

A span is ``(id, name, start, end, parent, cell)``: ``parent`` is the id
of the span that was open when this one started (``None`` at the root)
and ``cell`` ties the spans of one op together.  Spans stay in memory
and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = ["Span", "SpanRecorder", "NULL_RECORDER", "self_times"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    cell: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Stack-based recorder: the innermost open span is the parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    def add(self, name: str, start: float, end: float, cell: Optional[str] = None) -> Span:
        """Record an already-measured interval under the current parent."""
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, start, end, parent, cell)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[Span]:
        span = self.add(name, time.perf_counter(), float("nan"), cell)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        selfs = self_times(self.spans)
        rows = [dict(asdict(s), self_s=selfs[s.id]) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"schema": 1, "clock": "perf_counter", "spans": rows}, fh)
            fh.write("\n")


class _NullRecorder:
    """The untraced run's recorder: every call is a no-op."""

    def add(self, name, start, end, cell=None):
        return None

    @contextmanager
    def span(self, name, cell=None):
        yield None


NULL_RECORDER = _NullRecorder()


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of that
    interval its direct children cover.

    Children recorded by one stack never overlap each other, but spans
    added with explicit times may; overlapping child intervals are
    merged before subtracting so no instant is removed twice, and a
    child is clipped to its parent's interval.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out
