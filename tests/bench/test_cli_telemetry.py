"""CLI smoke: --trace/--metrics exports and experiment-id normalization."""

import json

import pytest

from repro.bench.__main__ import EXPERIMENTS, canonical_id, main
from repro.telemetry import UNIFORM_METRICS, runtime
from repro.telemetry.export import validate_chrome_trace

pytestmark = pytest.mark.telemetry


def test_canonical_id_accepts_compact_forms():
    assert canonical_id("figure6") == "figure-6"
    assert canonical_id("table1") == "table-1"
    assert canonical_id("figure-6") == "figure-6"
    assert canonical_id("fault-recovery") == "fault-recovery"
    assert canonical_id("nonsense") == "nonsense"


def test_unknown_experiment_is_an_error(capsys):
    assert main(["no-such-figure"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_trace_and_metrics_flags_write_valid_exports(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TENSOR_MB", "0.02")
    monkeypatch.setenv("REPRO_JOBS", "1")
    trace_path = tmp_path / "out.json"
    metrics_path = tmp_path / "metrics.json"
    code = main([
        "--experiment", "figure6",
        "--trace", str(trace_path),
        "--metrics", str(metrics_path),
    ])
    assert code == 0
    # The CLI deactivates the process-global telemetry when done.
    assert runtime.current() is None

    trace = json.loads(trace_path.read_text())
    assert validate_chrome_trace(trace) == []
    cats = {
        e.get("cat")
        for e in trace["traceEvents"]
        if e["ph"] not in ("M", "E")
    }
    assert {"collective", "packet", "worker"} <= cats

    metrics = json.loads(metrics_path.read_text())
    assert metrics["uniform_metrics"] == list(UNIFORM_METRICS)
    assert "omnireduce" in metrics["algorithms"]
    for name in UNIFORM_METRICS:
        assert name in metrics["metrics"]

    out = capsys.readouterr().out
    assert "telemetry summary" in out
    assert "figure-6" in out or "figure6" in out


def test_figure21_records_every_algorithm(monkeypatch):
    """Experiments run through the registry, so a process-global
    telemetry records the ring baselines next to OmniReduce."""
    from repro.bench.micro import fig21_loss_recovery
    from repro.telemetry import Telemetry

    monkeypatch.setenv("REPRO_TENSOR_MB", "0.02")
    with runtime.use(Telemetry()) as telemetry:
        fig21_loss_recovery()
    assert {"omnireduce", "ring"} <= set(telemetry.metrics.algorithms())
