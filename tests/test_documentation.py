"""Documentation validity: the README's code examples must actually run,
and the repository's documents must reference real artifacts."""

import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def python_blocks(markdown: str):
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


def test_readme_quickstart_executes():
    readme = (REPO / "README.md").read_text()
    blocks = python_blocks(readme)
    assert blocks, "README must contain python examples"
    # The first block is the quickstart; later blocks may depend on it.
    namespace: dict = {}
    for block in blocks[:2]:
        exec(compile(block, "<README>", "exec"), namespace)


def test_readme_mentions_all_deliverables():
    readme = (REPO / "README.md").read_text()
    for needle in ("DESIGN.md", "EXPERIMENTS.md", "examples/", "benchmarks/"):
        assert needle in readme


def test_design_md_bench_targets_exist():
    design = (REPO / "DESIGN.md").read_text()
    for target in re.findall(r"`(benchmarks/test_[a-z0-9_]+\.py)`", design):
        assert (REPO / target).exists(), f"DESIGN.md references missing {target}"


def test_design_md_test_targets_exist():
    design = (REPO / "DESIGN.md").read_text()
    for target in re.findall(r"`(tests/[a-z0-9_/]+\.py)`", design):
        assert (REPO / target).exists(), f"DESIGN.md references missing {target}"


def test_cited_result_files_exist():
    """Every ``benchmarks/results/<file>`` a document names is committed."""
    documents = [REPO / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
    documents += sorted((REPO / "docs").glob("*.md"))
    cited = {
        (doc.name, path)
        for doc in documents
        for path in re.findall(r"benchmarks/results/[\w.-]*\w", doc.read_text())
    }
    assert cited, "the documents cite committed result files"
    missing = sorted((doc, path) for doc, path in cited if not (REPO / path).is_file())
    assert not missing, f"documents cite result files that do not exist: {missing}"


def test_experiments_md_covers_every_figure_and_table():
    experiments = (REPO / "EXPERIMENTS.md").read_text()
    for fig in (1, 4, 5, 6, 7, 8, 9, 10, 13, 14, 15, 16, 17, 18, 20, 21):
        assert f"Fig. {fig}" in experiments, f"Figure {fig} missing"
    assert "Table 1" in experiments
    assert "Table 2" in experiments


def test_docs_reference_real_modules():
    for doc in ("docs/protocol.md", "docs/simulator.md"):
        text = (REPO / doc).read_text()
        for module_path in re.findall(r"`(core/[a-z_]+\.py|netsim/[a-z_]+\.py)`", text):
            assert (REPO / "src" / "repro" / module_path).exists(), (
                f"{doc} references missing {module_path}"
            )


def test_examples_are_importable():
    """Every example compiles (full runs are exercised separately)."""
    for example in sorted((REPO / "examples").glob("*.py")):
        source = example.read_text()
        compile(source, str(example), "exec")
        assert '"""' in source[:200], f"{example.name} lacks a docstring"
        assert "def main()" in source


@pytest.mark.parametrize("example", ["quickstart.py"])
def test_quickstart_example_runs(example):
    result = subprocess.run(
        [sys.executable, str(REPO / "examples" / example)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "speedup" in result.stdout
