"""The mutant kill matrix: every mutant dies by the one check it names.

Each cell crosses a :data:`~repro.conformance.mutants.MUTANTS` entry's
target case with a simulation mode and a fabric.  A packet cell is
``run_case``.  A flow cell is what flow mode adds on top of it: the
flow run's own checks and the packet-vs-flow comparisons of
``run_differential`` (the packet side's checks belong to the packet
cell).  Each cell asserts exactly one outcome: the checks that fired, a
typed refusal, ``inert`` (a flow-only mutant's packet cell passes), or
a known blind spot, as a strict xfail naming the ROADMAP item that
closes it.  ``docs/conformance.md`` states each row as WHEN/THEN
scenarios.
"""

import pytest

from repro.baselines import registry
from repro.conformance import (
    MUTANTS,
    ConformanceCase,
    differential_matrix,
    run_case,
    run_differential,
)
from repro.conformance import mutants
from repro.conformance.mutants import MutantRefused
from repro.core.flowreduce import FlowOmniReduce
from repro.netsim.cluster import Cluster

pytestmark = pytest.mark.conformance

REFUSED = "MutantRefused"
UNSUPPORTED = "FlowUnsupported"
INERT = "inert"
BLIND_SPOT = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: no monitor runs on a flow case, and both "
    "modes spam alike, so the differential cannot see it either",
)

CELLS = (
    ("packet", "flat"),
    ("flow", "flat"),
    ("packet", "fat-tree-2x"),
    ("flow", "fat-tree-2x"),
)
KILL_MATRIX = {
    "broken-result": ("oracle", "oracle", "oracle", UNSUPPORTED),
    "fusion-off-corrupts": ("oracle", "oracle", "oracle", UNSUPPORTED),
    "zero-block-spam": (
        "no-zero-block",
        ("no-zero-block", BLIND_SPOT),
        "no-zero-block",
        UNSUPPORTED,
    ),
    "flow-serialization-skew": (
        INERT, "differential:time", INERT, "differential:time"
    ),
    "flow-zero-bill": (INERT, "differential:counters", INERT, UNSUPPORTED),
    "topology-skew": (INERT, REFUSED, INERT, "differential:time"),
}


def _cells():
    for name, row in KILL_MATRIX.items():
        for (sim_mode, topology), expected in zip(CELLS, row):
            marks = ()
            if isinstance(expected, tuple):
                expected, marks = expected
            yield pytest.param(
                name, sim_mode, topology, expected, marks=marks,
                id=f"{name}-{sim_mode}-{topology}",
            )


def outcome(name: str, sim_mode: str, topology: str) -> str:
    """The one outcome of a kill-matrix cell."""
    mutant = MUTANTS[name]
    case = mutant.target.with_(topology=topology)
    try:
        if sim_mode == "packet":
            fired = run_case(case).checks
        else:
            report = run_differential(case)
            if report.unsupported:
                return UNSUPPORTED if report.ok else report.summary()
            fired = report.flow.checks | report.mismatches
    except MutantRefused:
        return REFUSED
    if not fired:
        return INERT if mutant.flow_only and sim_mode == "packet" else "passed"
    return "+".join(sorted(fired))


@pytest.mark.parametrize("name,sim_mode,topology,expected", _cells())
def test_kill_matrix(name, sim_mode, topology, expected):
    assert outcome(name, sim_mode, topology) == expected


def test_kill_matrix_rows_are_the_declared_kills():
    assert KILL_MATRIX.keys() == MUTANTS.keys()
    for name, row in KILL_MATRIX.items():
        checks = {
            cell[0] if isinstance(cell, tuple) else cell for cell in row
        } - {REFUSED, UNSUPPORTED, INERT}
        assert checks == {MUTANTS[name].kill}, name
        assert (INERT in row) == MUTANTS[name].flow_only, name


def _smoke_reports(name):
    """``run_differential`` over the smoke matrix with the mutant on.

    Each case takes the target's features (``fusion-off-corrupts``
    fires only with fusion off); cases the mutant refuses are left out.
    """
    features = MUTANTS[name].target.features
    reports = []
    for case in differential_matrix("smoke"):
        try:
            reports.append(
                run_differential(case.with_(mutant=name, features=features))
            )
        except MutantRefused:
            pass
    return reports


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_bug_size_neutral_passes_default_kills(name, monkeypatch):
    """At its default size each mutant is killed by its declared check
    on every smoke case it accepts, tiered ones included; at its
    neutral size it passes every one of them."""
    mutant = MUTANTS[name]
    killed = [r for r in _smoke_reports(name) if not r.unsupported]
    assert killed
    for report in killed:
        assert report.checks == {mutant.kill}, report.summary()

    monkeypatch.setattr(mutants, mutant.size, mutant.neutral)
    neutral = _smoke_reports(name)
    assert [r.case for r in neutral if not r.unsupported] == [
        r.case for r in killed
    ]
    for report in neutral:
        assert report.ok, report.summary()


def test_zero_block_spam_flow_case_runs_the_flow_engine():
    case = MUTANTS["zero-block-spam"].target.with_(sim_mode="flow")
    collective = MUTANTS["zero-block-spam"](registry.get(case.algorithm))
    session = collective.prepare(Cluster(case.cluster_spec()), case.options())
    assert isinstance(session.engine, FlowOmniReduce)
    assert not session.engine.features.zero_block_suppression


@pytest.mark.parametrize("topology", ["leaf-spine-2x", "fat-tree-2x", "fat-tree-4x"])
@pytest.mark.parametrize(
    "algorithm", ["ring", "ps", "agsparse", "sparcml-ssar", "halving-doubling"]
)
def test_serialization_skew_at_zero_passes_tiered_cases(
    algorithm, topology, monkeypatch
):
    monkeypatch.setattr(mutants, "SKEW_BYTES", 0)
    report = run_differential(
        ConformanceCase(
            algorithm=algorithm,
            workers=8,
            topology=topology,
            mutant="flow-serialization-skew",
        )
    )
    assert report.ok, report.summary()


@pytest.mark.parametrize("algorithm", ["omnireduce", "rackhier", "switchml"])
def test_serialization_skew_refuses_analytic_flow_engines(algorithm):
    with pytest.raises(MutantRefused, match="never sends through"):
        run_differential(
            ConformanceCase(algorithm=algorithm, mutant="flow-serialization-skew")
        )
