"""Tests of the benchmark itself (not part of tier-1):

    PYTHONPATH=src python -m pytest perfledger/tests -q

They drive ``perfledger/run.py`` the way the driver does, on ``--smoke``
sizes, and check the contract: result shape, metric names against
``BENCHMARK.json``, exact repeatability of every simulated statistic,
span arithmetic, that layer self times add up to the traced wall, that a
failing op is reported rather than fatal, and ``compare``'s verdicts.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfledger", "run.py")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfledger import __main__ as cli  # noqa: E402
from perfledger import bench, compare, workloads  # noqa: E402
from perfledger.spans import Span, SpanRecorder, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(workload, trace, out, seed=7, cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload untraced, twice with the same seed: (stdout lines, full results)."""
    scratch = tmp_path_factory.mktemp("smoke")
    lines, first, second = {}, {}, {}
    for workload in WORKLOADS:
        for index, results in enumerate((first, second)):
            out = scratch / f"{workload}.{index}.json"
            done = _run(workload, 0, out)
            assert done.returncode == 0, done.stderr
            lines[workload] = done.stdout.strip().splitlines()[-1]
            results[workload] = json.loads(out.read_text())
    return lines, first, second


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("traced")
    results = {}
    for workload in ("packet-sweep", "flow-flat", "fleet-observed"):
        out = scratch / f"{workload}.json"
        done = _run(workload, 1, out)
        assert done.returncode == 0, done.stderr
        results[workload] = (json.loads(done.stdout.strip().splitlines()[-1]), json.loads(out.read_text()))
    return results


def test_result_line_has_the_contract_shape(smoke):
    lines, _, _ = smoke
    for workload, line in lines.items():
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, workload
        assert result["correct"] is True and result["failed"] == 0, workload
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float)) and metric["value"] != 0, (workload, name)


def test_metric_names_are_the_ones_benchmark_json_lists(smoke, traced):
    lines, _, _ = smoke
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name in list(end_to_end) + list(per_layer) + WORKLOADS:
        assert NAME.match(name), name
    for line in lines.values():
        metrics = json.loads(line)["metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == end_to_end
    for result, _full in traced.values():
        assert {n: m["unit"] for n, m in result["metrics"].items()} == per_layer


def test_simulated_statistics_repeat_exactly(smoke):
    _, first, second = smoke
    for workload in WORKLOADS:
        a, b = first[workload], second[workload]
        assert a["sim_digest"] == b["sim_digest"], workload
        assert a["counts"] == b["counts"], workload
        for name in ("sim_time_s", "sim_wire_bytes"):
            assert a["metrics"][name]["value"] == b["metrics"][name]["value"], (workload, name)


def test_compare_judges_simulated_results_pair_by_pair(smoke, tmp_path, capsys):
    _, first, second = smoke
    a, b = list(first.values()), list(second.values())
    end_to_end = BENCHMARK["end_to_end"]
    rows, exact = compare.compare(a, b, end_to_end)
    assert len(rows) == len(WORKLOADS) * len(end_to_end)
    assert exact == []
    for row in rows:
        # One run per side: simulated results are exact, host times have no spread yet.
        assert row["verdict"] == ("unchanged" if row["metric"] in compare.EXACT else "unresolved"), row

    doctored = [dict(run, sim_digest="0" * 16) for run in b]
    _, exact = compare.compare(a, doctored, end_to_end)
    assert len(exact) == len(WORKLOADS)

    # 20% more simulated time is inside BENCHMARK.json's across-seed bound, and still a regression.
    slower = json.loads(json.dumps(b))
    slower[0]["metrics"]["sim_time_s"]["value"] *= 1.2
    rows, _ = compare.compare(a, slower, end_to_end)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts[(slower[0]["workload"], "sim_time_s")] == "regressed"
    assert verdicts[(slower[1]["workload"], "sim_time_s")] == "unchanged"

    def files(name, runs):
        path = tmp_path / name
        path.write_text(json.dumps({"schema": 1, "runs": runs}))
        return str(path)

    same = [files("a.json", a), "--", files("b.json", b)]
    assert compare.main(same) == 0
    assert compare.main([same[0], "--", files("slower.json", slower)]) == 1
    assert compare.main([same[0], "--", files("doctored.json", doctored)]) == 1
    capsys.readouterr()


def test_compare_host_time_verdicts():
    spec = [dict(name="pass_wall_s", unit="s", better="lower", bound=0.15)]

    def runs(values):
        return [
            dict(workload="w", seed=seed, sim_digest="d", counts={},
                 metrics={"pass_wall_s": {"value": value, "unit": "s"}})
            for seed, value in enumerate(values)
        ]

    def verdict(a, b):
        (row,), _ = compare.compare(runs(a), runs(b), spec)
        return row["verdict"]

    steady = [1.00, 1.01, 0.99, 1.00]
    assert verdict(steady, [1.00, 1.02, 0.99, 1.01]) == "unchanged"
    assert verdict(steady, [0.90, 0.91, 0.89, 0.90]) == "improved"
    assert verdict(steady, [1.20, 1.21, 1.19, 1.20]) == "regressed"
    assert verdict(steady, [0.7, 1.0, 1.3, 1.0]) == "unresolved"   # spread wider than the bound
    assert verdict(steady[:2], [0.5, 0.5]) == "unresolved"          # too few runs to know the spread
    assert verdict([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == "unresolved"  # no division by a zero median


def test_a_failing_op_is_reported_not_fatal(monkeypatch, capsys, smoke):
    """A cell whose cold op raises leaves no state for its later ops to
    summarize (train-step's wire counters work like that): every one of
    them is a failed op, and the result line is still printed."""
    state = {}

    def result(packets):
        return workloads.OpResult(1e-3, packets, 64 * packets, workloads._counts(), True, 0)

    def broken_run(rec, cold=False):
        if cold:
            raise RuntimeError("injected")
        return None

    cells = [
        workloads.Cell("good", True, lambda rec, cold=False: None,
                       lambda raw: result(10), lambda op: ([], 0.0)),
        workloads.Cell("broken", True, broken_run,
                       lambda raw: result(state["packets"]), lambda op: ([], 0.0)),
    ]
    monkeypatch.setitem(workloads.WORKLOADS, "broken", workloads.Workload("broken", lambda seed: cells))
    monkeypatch.setitem(workloads.SIZES, "broken", {"full": {}})
    assert bench.main(["--workload", "broken", "--seconds", "0.01"], (0.0, 0.1)) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["correct"] is False
    assert printed["attempted"] > printed["failed"] >= 1 + bench.MIN_PASSES
    assert set(printed["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}

    # The suite command turns a failed op into exit code 1.
    _, first, _ = smoke
    monkeypatch.setattr(cli, "_one", lambda workload, args, trace, scratch: dict(
        first[workload], correct=False, failed=1, failed_share=1 / first[workload]["attempted"]))
    assert cli.main(["run"]) == 1
    monkeypatch.setattr(cli, "_one", lambda workload, args, trace, scratch: first[workload])
    assert cli.main(["run"]) == 0
    capsys.readouterr()


def test_span_self_time_on_a_synthetic_tree():
    spans = [
        Span(0, "op", 0.0, 10.0),
        Span(1, "build", 1.0, 2.0, parent=0),
        Span(2, "run", 2.0, 9.0, parent=0),
        Span(3, "inner", 3.0, 5.0, parent=2),
        Span(4, "inner", 4.0, 6.0, parent=2),   # overlaps span 3: counted once
        Span(5, "late", 8.5, 12.0, parent=2),   # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 1.0 - 7.0)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(7.0 - 3.0 - 0.5)
    assert selfs[3] == pytest.approx(2.0) and selfs[4] == pytest.approx(2.0)
    recorder = SpanRecorder()
    with recorder.span("outer") as outer:
        with recorder.span("inner", cell="c") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None and inner.cell == "c"
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_layer_self_time_sums_to_the_traced_wall(traced):
    for workload, (result, _full) in traced.items():
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        total = sum(v for n, v in metrics.items() if n.endswith(".self_s"))
        assert total == pytest.approx(metrics["bench.traced_pass_wall_s"], rel=0.02), workload


def test_bypass_predictions_hold(traced):
    def metrics(workload):
        return {n: m["value"] for n, m in traced[workload][0]["metrics"].items()}

    sweep, flat, fleet = metrics("packet-sweep"), metrics("flow-flat"), metrics("fleet-observed")
    assert flat["netsim.kernel.events"] < 0.01 * sweep["netsim.kernel.events"]
    taps = fleet["telemetry.self_s"] + fleet["observatory.self_s"]
    assert taps > 0.5 * fleet["bench.traced_pass_wall_s"]
    for other in (sweep, flat):
        assert other["telemetry.self_s"] + other["observatory.self_s"] < 0.01 * other["bench.traced_pass_wall_s"]
        assert other["telemetry.spans_recorded"] == 0 and other["observatory.samples"] == 0


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfledger"), tmp_path / "perfledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("packet-sweep", 0, tmp_path / "out.json", cwd=tmp_path,
                run=str(tmp_path / "perfledger" / "run.py"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
