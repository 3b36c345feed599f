"""Seed-replay and failure minimization, proven against live mutants."""

import subprocess
import sys

import pytest

from repro.conformance import (
    MUTANTS,
    ConformanceCase,
    ReproSpec,
    minimize_case,
    run_case,
    run_spec,
)


def test_minimize_passing_case_returns_unminimized():
    case = ConformanceCase(workers=2, elements=256, block_size=32)
    spec = minimize_case(case)
    assert spec.case == case
    assert spec.problems == []


def test_minimize_respects_run_budget():
    calls = []

    def fails(case):
        calls.append(case)
        return True

    minimize_case(ConformanceCase(workers=8), fails=fails, max_runs=5)
    assert len(calls) == 5


@pytest.mark.conformance
def test_broken_result_mutant_is_caught_and_minimized():
    case = ConformanceCase(algorithm="omnireduce", mutant="broken-result")
    report = run_case(case)
    assert not report.ok
    assert report.oracle_problems  # oracle and/or agreement flags it

    spec = minimize_case(case)
    # Shrunk along every axis the failure doesn't need.
    assert spec.case.workers == 2
    assert spec.case.elements < case.elements
    assert spec.case.mutant == "broken-result"
    assert spec.problems
    # And replay still reproduces deterministically.
    assert not run_spec(spec).ok


def test_repro_snippet_contains_constructor_and_assertion():
    spec = ReproSpec(
        case=ConformanceCase(workers=2, elements=64, block_size=16, mutant="broken-result"),
        problems=["worker 1 disagrees with worker 0"],
    )
    snippet = spec.to_snippet()
    assert "ConformanceCase(" in snippet
    assert "mutant='broken-result'" in snippet
    assert "assert not report.ok" in snippet
    assert "worker 1 disagrees" in snippet
    # Defaults are omitted so the repro reads minimal.
    assert "algorithm=" not in snippet
    assert "pattern=" not in snippet


@pytest.mark.conformance
def test_repro_snippet_executes_standalone():
    """The emitted snippet is a real program: run it in a subprocess."""
    spec = minimize_case(
        ConformanceCase(algorithm="omnireduce", mutant="broken-result"),
        max_runs=12,
    )
    proc = subprocess.run(
        [sys.executable, "-c", spec.to_snippet()],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" in proc.stdout


@pytest.mark.conformance
def test_repro_snippet_with_features_executes_standalone():
    """A case with a feature set replays too: the snippet imports
    ``ProtocolFeatures`` for the constructor it prints."""
    spec = minimize_case(MUTANTS["fusion-off-corrupts"].target, max_runs=4)
    assert "features=ProtocolFeatures(" in spec.to_snippet()
    proc = subprocess.run(
        [sys.executable, "-c", spec.to_snippet()],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" in proc.stdout
