"""Tests for the experiment harness and CLI."""

import pytest

from repro.bench import ExperimentResult, format_table, sample_count, tensor_elements
from repro.bench.__main__ import EXPERIMENTS, main


def make_result():
    result = ExperimentResult(
        "figure-0", "Demo", ["name", "value"],
    )
    result.add_row(name="a", value=1.2345)
    result.add_row(name="b", value=250.0)
    result.notes.append("a note")
    return result


def test_add_row_and_column():
    result = make_result()
    assert result.column("name") == ["a", "b"]
    assert result.column("value") == [1.2345, 250.0]


def test_row_where():
    result = make_result()
    assert result.row_where(name="b")["value"] == 250.0
    with pytest.raises(KeyError):
        result.row_where(name="missing")


def test_format_table_contains_everything():
    text = format_table(make_result())
    assert "FIGURE-0" in text
    assert "Demo" in text
    assert "1.23" in text
    assert "250" in text
    assert "note: a note" in text


def test_format_table_alignment():
    lines = format_table(make_result()).splitlines()
    header_idx = next(i for i, l in enumerate(lines) if l.startswith("name"))
    separator = lines[header_idx + 1]
    assert set(separator) <= {"-", " "}


def test_tensor_elements_env(monkeypatch):
    monkeypatch.setenv("REPRO_TENSOR_MB", "8")
    elements = tensor_elements()
    assert elements == (int(8e6 / 4) // 256) * 256
    monkeypatch.setenv("REPRO_TENSOR_MB", "-1")
    with pytest.raises(ValueError):
        tensor_elements()


def test_sample_count_env(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLES", "3")
    assert sample_count() == 3
    monkeypatch.setenv("REPRO_SAMPLES", "0")
    with pytest.raises(ValueError):
        sample_count()


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "figure-6" in out
    assert "table-2" in out


def test_cli_no_args_lists(capsys):
    assert main([]) == 0
    assert "figure-1" in capsys.readouterr().out


def test_cli_unknown_experiment(capsys):
    assert main(["figure-999"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_runs_cheap_experiment(capsys):
    assert main(["figure-20"]) == 0
    out = capsys.readouterr().out
    assert "FIGURE-20" in out
    assert "completed in" in out


def test_cli_save_writes_table(tmp_path, capsys):
    assert main(["figure-20", "--save", str(tmp_path)]) == 0
    saved = tmp_path / "figure-20.txt"
    assert saved.exists()
    assert "FIGURE-20" in saved.read_text()


def test_cli_save_json(tmp_path, capsys):
    assert main(["figure-20", "--save", str(tmp_path), "--json"]) == 0
    saved = tmp_path / "figure-20.json"
    assert saved.exists()
    restored = ExperimentResult.from_json(saved.read_text())
    assert restored.experiment_id == "figure-20"
    assert restored.rows


def test_json_roundtrip():
    result = make_result()
    result.add_row(name="c", value=float("nan"))
    restored = ExperimentResult.from_json(result.to_json())
    assert restored.experiment_id == result.experiment_id
    assert restored.columns == result.columns
    assert restored.rows[0] == result.rows[0]
    import math

    assert math.isnan(restored.rows[-1]["value"])
    assert restored.notes == result.notes


def test_experiment_registry_covers_every_paper_artifact():
    ids = set(EXPERIMENTS)
    # Every evaluated figure and table of the paper has a bench target.
    for fig in (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21):
        assert f"figure-{fig}" in ids
    assert {"table-1", "table-2"} <= ids


def test_conformance_experiment_registered():
    assert "conformance" in EXPERIMENTS


@pytest.mark.conformance
def test_conformance_experiment_all_pass_and_mutants_caught():
    result = EXPERIMENTS["conformance"]()
    statuses = {row["algorithm"]: row["status"] for row in result.rows}
    # One row per registry algorithm plus one row per mutant.
    from repro.baselines.registry import ALGORITHMS
    from repro.conformance import MUTANTS

    for name in ALGORITHMS:
        assert statuses[name] == "PASS"
    mutant_rows = [r for r in result.rows if r["algorithm"].startswith("mutant:")]
    assert [r["algorithm"] for r in mutant_rows] == [
        f"mutant:{name}" for name in MUTANTS
    ]
    assert all(r["oracle_ok"] == "caught" for r in mutant_rows)
    assert all(r["status"] == "PASS" for r in mutant_rows)
    # The notes name each mutant's declared check as the one that fired,
    # and carry a minimized seed-replay for each single-mode mutant.
    for name, mutant in MUTANTS.items():
        assert any(
            n.startswith(f"mutant {name} on ")
            and n.endswith(f"declared {mutant.kill}, fired {mutant.kill}")
            for n in result.notes
        ), name
    minimized = [n for n in result.notes if "minimized to ConformanceCase(" in n]
    assert len(minimized) == 3
