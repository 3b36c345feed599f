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


#: The documents whose citations and commands are checked below.
DOCUMENTS = [REPO / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
DOCUMENTS += sorted((REPO / "docs").glob("*.md"))

#: A committed ``benchmarks/results/`` file, or a repo-root JSON
#: artifact: those are spelled in capitals (``BENCHMARK.json``), while
#: lowercase names such as ``metrics.json`` are command outputs.
CITED_FILE = re.compile(
    r"benchmarks/results/[\w.-]*\w|(?<![\w/.-])[A-Z][A-Za-z0-9_]*\.json\b"
)


def test_cited_result_files_exist():
    """Every result file or repo-root JSON file a document names is committed."""
    cited = {
        (doc.name, path)
        for doc in DOCUMENTS
        for path in CITED_FILE.findall(doc.read_text())
    }
    assert any(
        path.startswith("benchmarks/results/") for _, path in cited
    ), "the documents cite committed result files"
    missing = sorted((doc, path) for doc, path in cited if not (REPO / path).is_file())
    assert not missing, f"documents cite files that do not exist: {missing}"


def bench_commands(markdown: str):
    """The argument text of every ``python -m repro.bench`` command.

    Commands are taken from fenced code lines (backslash continuations
    joined, ``#`` comments dropped) and from inline code spans, which
    prose may wrap across lines.
    """
    fence = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
    lines = [
        line.split("#", 1)[0]
        for block in fence.findall(markdown)
        for line in block.replace("\\\n", " ").splitlines()
    ]
    spans = [
        " ".join(span.split())
        for span in re.findall(r"`([^`]+)`", fence.sub("", markdown))
    ]
    command = "python -m repro.bench"
    return [text.split(command, 1)[1] for text in lines + spans if command in text]


def test_documented_bench_flags_exist(capsys):
    """Every ``--flag`` a document passes to ``python -m repro.bench`` is
    an option of its parser."""
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main(["--help"])
    options = set(re.findall(r"--[a-z][\w-]*", capsys.readouterr().out))
    used = {
        (doc.name, flag)
        for doc in DOCUMENTS
        for args in bench_commands(doc.read_text())
        for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", args)
    }
    assert used, "the documents show python -m repro.bench options"
    unknown = sorted((doc, flag) for doc, flag in used if flag not in options)
    assert not unknown, f"documents use unknown repro.bench options: {unknown}"


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
    """Every example compiles (the CI ``examples`` row runs them all)."""
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
