"""Virtual-time span recording.

A *span* is a named interval on the simulator clock -- a block
round-trip, an aggregator slot's occupancy, a retransmission timer's
lifetime, a worker's wait-for-result stall.  Spans are recorded as
begin/end event pairs against per-component *tracks* (the exporter maps
tracks to Chrome-trace threads), nested LIFO within a track.

Instrumented hot paths hold a recorder object and gate every recording
on its ``enabled`` attribute::

    rec = self.recorder
    if rec.enabled:
        rec.begin(sim.now, track, "await-result")

When telemetry is off the recorder is the shared :data:`NULL_RECORDER`
whose ``enabled`` is ``False``, so the disabled cost is exactly one
attribute check -- nothing is allocated, no method is called, and the
run executes the same events as an uninstrumented one
(``tests/telemetry/test_null_recorder.py``).

Timestamps are passed in explicitly (callers read ``sim.now``): a
recorder may serve many simulators over its lifetime, so it owns no
clock of its own.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["NullRecorder", "NULL_RECORDER", "SpanTracer", "SpanEvent"]

#: One recorded event: (pid, ts_s, phase, track, name, category, args).
#: Phases follow the Chrome trace-event format: "B" begin, "E" end,
#: "i" instant, "C" counter.
SpanEvent = Tuple[int, float, str, str, str, str, Optional[Dict[str, Any]]]


class NullRecorder:
    """The disabled recorder: every operation is a no-op.

    Hot paths check ``enabled`` before calling anything, so these
    methods exist only for code that records unconditionally (cold
    paths, tests).
    """

    enabled = False
    dropped = 0

    def begin(self, ts, track, name, cat="span", args=None):  # noqa: D102
        pass

    def end(self, ts, track):  # noqa: D102
        pass

    def instant(self, ts, track, name, cat="event", args=None):  # noqa: D102
        pass

    def counter(self, ts, track, name, value):  # noqa: D102
        pass


#: Shared disabled recorder; components default to this.
NULL_RECORDER = NullRecorder()


class SpanTracer:
    """Records spans, instants and counter samples in virtual time.

    ``max_events`` bounds memory on long sweeps: once full, new events
    are counted in :attr:`dropped` instead of stored -- except ``end``
    events whose matching ``begin`` was stored, which are always kept so
    the recorded stream stays begin/end balanced (a hard requirement of
    the Chrome trace export).

    ``pid`` groups events into runs (one collective operation each);
    :class:`~repro.telemetry.Telemetry` advances it, components never
    touch it.
    """

    enabled = True

    def __init__(self, max_events: Optional[int] = None) -> None:
        if max_events is not None and max_events < 0:
            raise ValueError("max_events must be non-negative")
        self.max_events = max_events
        self.events: List[SpanEvent] = []
        self.dropped = 0
        self.pid = 0
        # Open-span stacks per (pid, track): entries are
        # (name, was_recorded) so a capped tracer can keep its recorded
        # stream balanced while dropping whole spans.
        self._open: Dict[Tuple[int, str], List[Tuple[str, bool]]] = {}

    def _full(self) -> bool:
        return self.max_events is not None and len(self.events) >= self.max_events

    # -- recording ----------------------------------------------------------

    def begin(
        self,
        ts: float,
        track: str,
        name: str,
        cat: str = "span",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Open a span named ``name`` on ``track`` at virtual time ``ts``."""
        recorded = not self._full()
        if recorded:
            self.events.append((self.pid, ts, "B", track, name, cat, args))
        else:
            self.dropped += 1
        self._open.setdefault((self.pid, track), []).append((name, recorded))

    def end(self, ts: float, track: str) -> None:
        """Close the innermost open span on ``track``."""
        stack = self._open.get((self.pid, track))
        if not stack:
            return  # unmatched end: ignore rather than corrupt the stream
        name, recorded = stack.pop()
        if recorded:
            # Always kept, even when full: balance beats the cap.
            self.events.append((self.pid, ts, "E", track, name, "span", None))
        else:
            self.dropped += 1

    def instant(
        self,
        ts: float,
        track: str,
        name: str,
        cat: str = "event",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a zero-duration marker."""
        if self._full():
            self.dropped += 1
            return
        self.events.append((self.pid, ts, "i", track, name, cat, args))

    def counter(self, ts: float, track: str, name: str, value: float) -> None:
        """Record one time-series sample (rendered as a counter track)."""
        if self._full():
            self.dropped += 1
            return
        self.events.append((self.pid, ts, "C", track, name, "sample", {"value": value}))

    # -- finishing ----------------------------------------------------------

    def open_spans(self) -> List[Tuple[int, str, str]]:
        """(pid, track, name) of every span still open, outermost first."""
        out = []
        for (pid, track), stack in self._open.items():
            for name, _recorded in stack:
                out.append((pid, track, name))
        return out

    def close_open_spans(self, ts: float) -> int:
        """Force-close every open span at ``ts`` (e.g. processes that a
        fault interrupted, or slots that serve duplicates forever and
        only stop when the simulation drains).  Returns the number
        closed."""
        closed = 0
        for (pid, track), stack in list(self._open.items()):
            while stack:
                name, recorded = stack.pop()
                if recorded:
                    self.events.append((pid, ts, "E", track, name, "span", None))
                closed += 1
            del self._open[(pid, track)]
        return closed

    def __len__(self) -> int:
        return len(self.events)
