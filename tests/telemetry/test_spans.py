"""SpanTracer, its per-process Recorders and the NullRecorder fast path."""

import pytest

from repro.telemetry.spans import NULL_RECORDER, NullRecorder, SpanTracer


def test_begin_end_records_balanced_pairs():
    t = SpanTracer()
    rec = t.recorder(0)
    rec.begin(1.0, "w0", "stream", cat="worker")
    rec.begin(2.0, "w0", "await-result", cat="wait")
    rec.end(3.0, "w0")
    rec.end(4.0, "w0")
    phases = [e[2] for e in t.events]
    assert phases == ["B", "B", "E", "E"]
    # LIFO: the inner span's E carries the inner span's name.
    assert t.events[2][4] == "await-result"
    assert t.events[3][4] == "stream"
    assert not rec.open_spans()


def test_unmatched_end_is_ignored():
    t = SpanTracer()
    t.recorder(0).end(1.0, "nowhere")
    assert len(t) == 0


def test_instant_and_counter():
    t = SpanTracer()
    rec = t.recorder(0)
    rec.instant(1.0, "faults", "aggregator-crash", cat="fault", args={"shard": 0})
    rec.counter(2.0, "link/worker-0", "utilization", 0.7)
    assert [e[2] for e in t.events] == ["i", "C"]
    assert t.events[1][6] == {"value": 0.7}


def test_cap_drops_new_events_but_keeps_balance():
    t = SpanTracer(max_events=2)
    rec = t.recorder(0)
    rec.begin(1.0, "a", "outer")          # recorded (1 event)
    rec.begin(2.0, "a", "inner")          # recorded (2 events -> full)
    rec.begin(3.0, "a", "dropped-span")   # dropped
    rec.instant(3.5, "a", "dropped-instant")  # dropped
    rec.end(4.0, "a")                     # dropped-span's end: dropped too
    rec.end(5.0, "a")                     # inner's end: KEPT despite cap
    rec.end(6.0, "a")                     # outer's end: KEPT despite cap
    assert t.dropped == 3
    phases = [(e[2], e[4]) for e in t.events]
    assert phases == [
        ("B", "outer"), ("B", "inner"), ("E", "inner"), ("E", "outer"),
    ]
    # Balanced: every recorded B has a recorded E.
    assert not rec.open_spans()


def test_cap_is_shared_by_every_recorder():
    t = SpanTracer(max_events=2)
    run, fabric = t.recorder(1), t.recorder(0)
    run.begin(1.0, "w0", "stream")        # recorded
    fabric.instant(1.5, "net/w0", "send")  # recorded -> full
    fabric.instant(2.0, "net/w0", "send")  # dropped
    run.begin(2.5, "w0", "await-result")  # dropped
    run.end(3.0, "w0")
    run.end(4.0, "w0")                    # stream's end: KEPT despite cap
    assert t.dropped == 3
    assert [(e[0], e[2]) for e in t.events] == [(1, "B"), (0, "i"), (1, "E")]


def test_recorder_close_balances_interrupted_tracks():
    t = SpanTracer()
    run, other = t.recorder(1), t.recorder(2)
    run.begin(1.0, "slot0", "slot")
    run.begin(2.0, "slot0", "round")
    run.begin(3.0, "w0", "stream")
    other.begin(4.0, "w0", "stream")
    closed = run.close(9.0)
    assert closed == 3
    assert not run.open_spans()
    ends = [e for e in t.events if e[2] == "E"]
    assert len(ends) == 3
    assert all(e[1] == 9.0 and e[0] == 1 for e in ends)
    # LIFO within a track: the inner round closes before its slot.
    assert [e[4] for e in ends] == ["round", "slot", "stream"]
    # Another process's span stays open and its own to close.
    assert other.open_spans() == [("w0", "stream")]
    # A closed recorder records nothing more.
    assert run.enabled is False
    run.begin(10.0, "w0", "late")
    run.instant(10.0, "w0", "late")
    run.counter(10.0, "w0", "late", 1.0)
    run.end(11.0, "w0")
    assert len(t) == 4 + 3


def test_pid_tracks_are_independent():
    t = SpanTracer()
    first, second = t.recorder(0), t.recorder(1)
    first.begin(1.0, "x", "first")
    # Same track name, another pid: the pid-0 span is not closable from here.
    second.end(2.0, "x")
    assert [e[2] for e in t.events] == ["B"]
    assert first.open_spans() == [("x", "first")]
    assert second.open_spans() == []


def test_negative_cap_rejected():
    with pytest.raises(ValueError):
        SpanTracer(max_events=-1)


def test_null_recorder_is_disabled_and_inert():
    assert NULL_RECORDER.enabled is False
    assert NULL_RECORDER.dropped == 0
    # Every method is a no-op returning None -- safe to call blindly.
    assert NULL_RECORDER.begin(0.0, "t", "n") is None
    assert NULL_RECORDER.end(0.0, "t") is None
    assert NULL_RECORDER.instant(0.0, "t", "n") is None
    assert NULL_RECORDER.counter(0.0, "t", "n", 1.0) is None
    assert isinstance(NULL_RECORDER, NullRecorder)
