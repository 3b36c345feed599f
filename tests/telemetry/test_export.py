"""Exporters: Chrome trace structure, fault folding, summary, samplers."""

import json

import numpy as np
import pytest

from repro.baselines import ALGORITHMS
from repro.core import OmniReduce, OmniReduceConfig
from repro.faults import AggregatorCrash, FaultPlan
from repro.netsim import Cluster, ClusterSpec
from repro.telemetry import Telemetry, TelemetryConfig, export
from repro.telemetry.export import chrome_trace, validate_chrome_trace
from repro.tensors import block_sparse_tensors

pytestmark = pytest.mark.telemetry


def _cluster(faults=None, **kw):
    spec = dict(workers=2, aggregators=2, bandwidth_gbps=10, transport="dpdk")
    spec.update(kw)
    return Cluster(ClusterSpec(**spec), faults=faults)


def _tensors(workers=2, seed=0):
    return block_sparse_tensors(
        workers, 32 * 16, 16, 0.5, rng=np.random.default_rng(seed)
    )


def _recorded_run(telemetry=None, **cluster_kw):
    tele = telemetry or Telemetry()
    cluster = _cluster(**cluster_kw)
    tele.attach(cluster)
    result = OmniReduce(cluster, OmniReduceConfig(block_size=16)).allreduce(
        _tensors()
    )
    return tele, result


def test_chrome_trace_is_valid_and_json_serializable():
    tele, _ = _recorded_run()
    trace = tele.chrome_trace()
    assert validate_chrome_trace(trace) == []
    json.dumps(trace, default=float)  # must not raise
    events = trace["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "B", "E", "i"} <= phases
    cats = {e.get("cat") for e in events if e["ph"] not in ("M", "E")}
    assert {"collective", "packet", "worker", "aggregator", "wait"} <= cats


def test_trace_names_processes_after_algorithms():
    tele, _ = _recorded_run()
    names = [
        e["args"]["name"]
        for e in tele.chrome_trace()["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    ]
    assert names == ["omnireduce"]


def test_fault_entries_fold_into_the_trace():
    plan = FaultPlan(aggregator_crashes=(
        AggregatorCrash(shard=0, time_s=1e-5, restart_delay_s=1e-5),
    ))
    tele, result = _recorded_run(faults=plan)
    assert result.recovery_events >= 1
    trace = tele.chrome_trace()
    assert validate_chrome_trace(trace) == []
    fault_names = [
        e["name"] for e in trace["traceEvents"] if e.get("cat") == "fault"
    ]
    assert "aggregator-crash" in fault_names
    assert "aggregator-restart" in fault_names


def test_sampler_emits_counter_events():
    tele = Telemetry(TelemetryConfig(sample_interval_s=1e-6))
    _recorded_run(telemetry=tele)
    counters = [e for e in tele.tracer.events if e[2] == "C"]
    assert counters, "sampler produced no counter samples"
    tracks = {e[3] for e in counters}
    assert any(t.startswith("link/") for t in tracks)
    names = {e[4] for e in counters}
    assert "utilization" in names and "queue_depth" in names
    # Utilization is a fraction of line rate.
    for e in counters:
        if e[4] == "utilization":
            assert 0.0 <= e[6]["value"] <= 1.0 + 1e-9


def test_summary_lists_each_algorithm_row():
    tele = Telemetry()
    cluster = _cluster(workers=4, aggregators=4, transport="tcp")
    tensors = _tensors(workers=4)
    for name in ("ring", "ps"):
        collective = ALGORITHMS[name]
        session = collective.prepare(
            cluster, type(collective.default_options())(telemetry=tele)
        )
        session.allreduce(tensors)
    text = tele.summary()
    assert "telemetry summary" in text
    assert "ring" in text and "ps" in text
    assert "goodput" in text and "zero_blk" in text


def test_summary_without_runs_is_graceful():
    assert "no collectives recorded" in Telemetry().summary()


def test_metrics_report_shape():
    tele, _ = _recorded_run()
    report = tele.metrics_report()
    assert report["algorithms"] == ["omnireduce"]
    assert set(report["uniform_metrics"]) <= set(report["metrics"])


def test_write_trace_and_metrics_files(tmp_path):
    tele, _ = _recorded_run()
    trace_path = tmp_path / "out.json"
    metrics_path = tmp_path / "metrics.json"
    tele.write_trace(str(trace_path))
    tele.write_metrics(str(metrics_path))
    trace = json.loads(trace_path.read_text())
    assert validate_chrome_trace(trace) == []
    metrics = json.loads(metrics_path.read_text())
    assert "omnireduce" in metrics["algorithms"]


def _written(tmp_path, tele):
    """Write the trace, check it is ``json.dump``'s bytes, parse it."""
    path = tmp_path / "trace.json"
    tele.write_trace(str(path))
    text = path.read_text()
    assert text == json.dumps(
        chrome_trace(tele), separators=(",", ":"), default=float
    )
    return json.loads(text)


@pytest.mark.parametrize("chunk", [1, 7, "all"])
def test_streamed_trace_is_byte_identical_across_chunk_seams(
    tmp_path, monkeypatch, chunk
):
    tele, _ = _recorded_run()
    if chunk == "all":
        # One full chunk, then an empty one.
        chunk = len(chrome_trace(tele)["traceEvents"])
    monkeypatch.setattr(export, "_CHUNK_RECORDS", chunk)
    _written(tmp_path, tele)


def test_streamed_trace_of_empty_telemetry(tmp_path):
    assert _written(tmp_path, Telemetry())["traceEvents"] == []


def test_streamed_trace_encodes_numpy_scalars_as_floats(tmp_path):
    tele = Telemetry()
    tele.reserve_pid("numpy-args")
    tele.tracer.begin(
        1e-6, "t", "s", args={"f32": np.float32(0.25), "i64": np.int64(3)}
    )
    tele.tracer.end(2e-6, "t")
    begin = [e for e in _written(tmp_path, tele)["traceEvents"]
             if e["ph"] == "B"]
    assert begin[0]["args"] == {"f32": 0.25, "i64": 3.0}


def test_streamed_trace_carries_spans_dropped(tmp_path):
    tele = Telemetry(TelemetryConfig(max_span_events=200))
    _recorded_run(telemetry=tele)
    assert tele.tracer.dropped > 0
    other = _written(tmp_path, tele)["otherData"]
    assert other["spans_dropped"] == tele.tracer.dropped


def test_span_cap_keeps_trace_balanced():
    tele = Telemetry(TelemetryConfig(max_span_events=200))
    _recorded_run(telemetry=tele)
    assert tele.tracer.dropped > 0
    trace = tele.chrome_trace()
    assert validate_chrome_trace(trace) == []
    assert trace["otherData"]["spans_dropped"] == tele.tracer.dropped


def test_validator_flags_broken_traces():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    unbalanced = {"traceEvents": [
        {"ph": "B", "ts": 0.0, "pid": 0, "tid": 1, "name": "x", "cat": "s"},
    ]}
    assert any("unclosed" in p for p in validate_chrome_trace(unbalanced))
    backwards = {"traceEvents": [
        {"ph": "i", "ts": 2.0, "pid": 0, "tid": 1, "name": "a", "cat": "e", "s": "t"},
        {"ph": "i", "ts": 1.0, "pid": 0, "tid": 1, "name": "b", "cat": "e", "s": "t"},
    ]}
    assert any("<" in p for p in validate_chrome_trace(backwards))
