"""Exporters: Chrome trace events, metrics JSON, and the text summary.

The Chrome trace export follows the Trace Event Format understood by
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``: duration
events (``ph: B``/``E``), instants (``i``), counters (``C``), and
metadata (``M``) records naming processes and threads.  Each collective
run becomes one *process* (pid) labeled with its algorithm, with its
workers and aggregator slots as *threads*; the ``fabric`` process (pid
0) holds the packet stream, the fault stream and the link samples, and
the observatory and any fabric service have one process each.  One
timeline interleaves spans, packet events, samples, and fault entries
on the simulator's virtual clock (exported in microseconds, the
format's native unit).
"""

from __future__ import annotations

import json
from itertools import islice
from operator import itemgetter
from typing import Any, Dict, Iterator, List

from .metrics import UNIFORM_METRICS, unsupported_metrics

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "metrics_report",
    "write_metrics",
    "summary",
    "validate_chrome_trace",
    "normalize_chrome_trace",
]


#: One-shot encoder for the trace file.  ``encode`` takes the C path;
#: ``json.dump`` would walk every record through the pure-Python
#: ``iterencode`` instead, for the same bytes.
_ENCODE = json.JSONEncoder(separators=(",", ":"), default=float).encode

#: Records encoded per ``write_chrome_trace`` chunk: enough to amortise
#: the encoder call, few enough that no chunk's text grows with the run.
#: A chunk's record dicts and encoder fragments are the export's whole
#: transient memory, so the peak grows with this size.
_CHUNK_RECORDS = 2048


def _trace_records(telemetry) -> Iterator[Dict[str, Any]]:
    """Yield the Chrome trace's ``traceEvents`` records in document order."""
    tracer = telemetry.tracer

    # Tracks map to integer thread ids, allocated per process in order
    # of first appearance; metadata records carry the human name.
    tids: Dict[Any, int] = {}
    next_tid: Dict[int, int] = {}
    for pid, ts, ph, track, name, cat, args in tracer.events:
        key = (pid, track)
        if key not in tids:
            tids[key] = next_tid[pid] = next_tid.get(pid, 0) + 1

    # Name each run's process after its algorithm, and pid 0 ``fabric``
    # when it recorded anything; runs that declared a protocol feature
    # set also get a ``process_labels`` metadata record
    # ("+enabled,-ablated" per feature), so the trace itself says which
    # protocol variant produced it.
    labels = dict(telemetry.run_labels)
    if 0 in next_tid:
        labels[0] = "fabric"
    run_features = getattr(telemetry, "run_features", {})
    for pid, label in sorted(labels.items()):
        yield {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        }
        features = run_features.get(pid)
        if features:
            stamp = ",".join(
                ("+" if enabled else "-") + name
                for name, enabled in features.items()
            )
            yield {
                "ph": "M",
                "name": "process_labels",
                "pid": pid,
                "tid": 0,
                "args": {"labels": stamp},
            }
    for (pid, track), tid in tids.items():
        yield {
            "ph": "M",
            "name": "thread_name",
            "pid": pid,
            "tid": tid,
            "args": {"name": track},
        }

    # Event records, globally ordered by virtual time.  Python's sort is
    # stable, so same-timestamp events keep their recording order and
    # begin/end nesting survives ties.
    for pid, ts, ph, track, name, cat, args in sorted(
        tracer.events, key=itemgetter(1)
    ):
        record: Dict[str, Any] = {
            "ph": ph,
            "ts": ts * 1e6,
            "pid": pid,
            "tid": tids[(pid, track)],
            "name": name,
        }
        if ph != "E":
            record["cat"] = cat
        if ph == "i":
            record["s"] = "t"  # thread-scoped instant
        if args:
            record["args"] = dict(args)
        yield record


def _document(telemetry, trace_events: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "virtual (simulator seconds, exported as us)",
            "spans_dropped": telemetry.tracer.dropped,
        },
    }


def chrome_trace(telemetry) -> Dict[str, Any]:
    """Render the telemetry's recorded events as a Chrome trace dict."""
    return _document(telemetry, list(_trace_records(telemetry)))


def write_chrome_trace(telemetry, path: str) -> None:
    """Write :func:`chrome_trace` as compact JSON, streamed in chunks.

    The bytes are those of ``json.dump(chrome_trace(telemetry), fh,
    separators=(",", ":"), default=float)``; records are built and
    encoded ``_CHUNK_RECORDS`` at a time, so the file never exists as
    one dict or one string in memory.
    """
    head = '{"traceEvents":['
    # ``traceEvents`` is the document's first key: from its empty list's
    # closing bracket on, the encoded envelope is the file's tail.
    tail = _ENCODE(_document(telemetry, []))[len(head):]
    records = _trace_records(telemetry)
    with open(path, "w") as fh:
        fh.write(head)
        separator = ""
        while True:
            chunk = list(islice(records, _CHUNK_RECORDS))
            if not chunk:
                break
            fh.write(separator)
            fh.write(_ENCODE(chunk)[1:-1])
            separator = ","
        fh.write(tail)


def metrics_report(telemetry) -> Dict[str, Any]:
    """Metrics registry plus run metadata as a JSON-ready dict.

    ``unsupported`` maps each algorithm to the uniform metrics its
    execution mode could not measure (flow-mode runs have no
    per-packet retransmissions); those metrics carry no sample for the
    algorithm, so consumers must treat them as n/a rather than zero.
    """
    registry = telemetry.metrics
    algorithms = registry.algorithms()
    unsupported = {}
    for algo in algorithms:
        missing = unsupported_metrics(registry, algo)
        if missing:
            unsupported[algo] = sorted(missing)
    report = {
        "uniform_metrics": list(UNIFORM_METRICS),
        "algorithms": algorithms,
        "metrics": registry.collect(),
    }
    if unsupported:
        report["unsupported"] = unsupported
    return report


def write_metrics(telemetry, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(metrics_report(telemetry), fh, indent=2, default=float)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def summary(telemetry) -> str:
    """Human-readable end-of-run summary rendered from the registry."""
    registry = telemetry.metrics
    algorithms = registry.algorithms()
    if not algorithms:
        return "telemetry: no collectives recorded"
    columns = [
        ("time_s", "time_s"),
        ("bytes_on_wire", "bytes"),
        ("packets_on_wire", "packets"),
        ("goodput_gbps", "goodput"),
        ("raw_throughput_gbps", "raw_gbps"),
        ("zero_blocks_suppressed", "zero_blk"),
        ("retransmissions", "retx"),
    ]
    header = ["algorithm"] + [title for _, title in columns] + ["stall_max_s"]
    rows = [header]
    stall = registry.get("worker_stall_s")
    for algo in algorithms:
        row = [algo]
        missing = unsupported_metrics(registry, algo)
        for name, _title in columns:
            if name in missing:
                row.append("n/a")
                continue
            metric = registry.get(name)
            value = metric.value(algorithm=algo) if metric is not None else None
            row.append(_fmt(value) if value is not None else "-")
        stall_max = "-"
        if stall is not None:
            maxes = [
                s["value"]["max"]
                for s in stall.samples()
                if s["labels"].get("algorithm") == algo
            ]
            if maxes:
                stall_max = _fmt(max(maxes))
        row.append(stall_max)
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    extra = []
    if telemetry.tracer.dropped:
        extra.append(f"(spans dropped at cap: {telemetry.tracer.dropped})")
    return "\n".join(["telemetry summary"] + lines + extra)


def validate_chrome_trace(trace: Dict[str, Any]) -> List[str]:
    """Structural checks on an exported trace; returns found problems.

    Verifies the properties the acceptance criteria require: the
    document has a ``traceEvents`` list, non-metadata timestamps are
    monotonically non-decreasing in document order, and begin/end
    events are balanced and properly nested per (pid, tid).
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    last_ts = None
    stacks: Dict[Any, List[str]] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(f"event {i}: ts {ts} < previous {last_ts}")
        last_ts = ts
        key = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append(ev.get("name", ""))
        elif ph == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(f"event {i}: E without matching B on {key}")
            else:
                stack.pop()
    for key, stack in stacks.items():
        if stack:
            problems.append(f"unclosed spans on {key}: {stack}")
    return problems


def normalize_chrome_trace(trace: Dict[str, Any]) -> Dict[str, Any]:
    """Strip run-to-run noise for golden-fixture comparison.

    Packet ids are renumbered by first appearance and flow labels lose
    their per-operation prefix (``or<N>.up`` -> ``up``), mirroring
    :func:`repro.conformance.golden.normalize_trace`; timestamps are
    rounded to the nanosecond to absorb float formatting jitter.
    """
    import re

    flow_re = re.compile(r"^[a-z]+\d+\.(?P<rest>.+)$")
    pkt_ids: Dict[Any, int] = {}
    out_events = []
    for ev in trace.get("traceEvents", []):
        ev = dict(ev)
        if "ts" in ev:
            ev["ts"] = round(ev["ts"] * 1000) / 1000  # us -> ns grid
        args = ev.get("args")
        if args:
            args = dict(args)
            if "pkt_id" in args:
                args["pkt_id"] = pkt_ids.setdefault(args["pkt_id"], len(pkt_ids))
            flow = args.get("flow")
            if isinstance(flow, str):
                match = flow_re.match(flow)
                if match:
                    args["flow"] = match.group("rest")
            ev["args"] = args
        out_events.append(ev)
    return {"traceEvents": out_events}
