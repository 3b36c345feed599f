"""The conformance topology axis and its differential coverage.

Cases carry a ``topology`` field naming an entry of
:data:`repro.conformance.runner.TOPOLOGIES`; tiered cases build a fresh
oversubscribed fabric per run.  The packet-vs-flow differential must
hold through shared uplink/spine pipes for the collectives that replay
them (FlowTransport baselines and the rack-hierarchical engine), flat
OmniReduce must *refuse* tiered cases.  The ``topology-skew`` mutant,
which proves the differential watches the pipes, runs in the kill
matrix (``test_mutants.py``).
"""

import pytest

from repro.conformance import (
    ConformanceCase,
    differential_matrix,
    flow_capable,
    run_case,
    run_differential,
)
from repro.conformance.runner import TOPOLOGIES
from repro.netsim.topology import FatTreeTopology, LeafSpineTopology

pytestmark = [pytest.mark.conformance, pytest.mark.flowmode, pytest.mark.topology]


def test_topology_axis_is_validated_and_tagged():
    case = ConformanceCase(algorithm="ring", topology="fat-tree-2x")
    assert "fat-tree-2x" in case.case_id
    assert "flat" not in ConformanceCase().case_id
    with pytest.raises(ValueError):
        ConformanceCase(topology="moebius-strip")


def test_build_topology_constructs_the_named_fabric():
    assert ConformanceCase().build_topology() is None
    leaf = ConformanceCase(topology="leaf-spine-2x").build_topology()
    assert isinstance(leaf, LeafSpineTopology)
    fat = ConformanceCase(topology="fat-tree-4x").build_topology()
    assert isinstance(fat, FatTreeTopology)
    # Fresh pipes per call: booked state must never leak across runs.
    assert ConformanceCase(topology="fat-tree-4x").build_topology() is not fat
    assert set(TOPOLOGIES) == {
        "flat", "leaf-spine-2x", "fat-tree-2x", "fat-tree-4x"
    }


@pytest.mark.parametrize("topology", sorted(set(TOPOLOGIES) - {"flat"}))
def test_packet_conformance_on_tiered_topologies(topology):
    report = run_case(
        ConformanceCase(algorithm="rackhier", topology=topology)
    )
    assert report.ok, report.summary()


@pytest.mark.parametrize(
    "algorithm,topology",
    [
        ("ring", "fat-tree-2x"),
        ("ring", "leaf-spine-2x"),
        ("rackhier", "fat-tree-2x"),
        ("rackhier", "fat-tree-4x"),
        ("rackhier", "leaf-spine-2x"),
    ],
)
def test_differential_through_shared_pipes(algorithm, topology):
    report = run_differential(
        ConformanceCase(algorithm=algorithm, topology=topology)
    )
    assert report.ok, report.summary()
    assert report.unsupported is None


def test_differential_straggler_on_fat_tree():
    report = run_differential(
        ConformanceCase(
            algorithm="rackhier", topology="fat-tree-4x", fault="straggler"
        )
    )
    assert report.ok, report.summary()
    assert report.unsupported is None


@pytest.mark.parametrize("algorithm", ["omnireduce", "switchml"])
def test_flat_engines_refuse_tiered_topologies(algorithm):
    case = ConformanceCase(algorithm=algorithm, topology="fat-tree-2x")
    assert flow_capable(case) is not None
    report = run_differential(case)
    # Passes *because* flow mode raised FlowUnsupported.
    assert report.unsupported is not None
    assert report.ok, report.summary()


def test_matrices_cover_the_topology_axis():
    smoke = differential_matrix("smoke")
    assert any(c.topology == "fat-tree-2x" for c in smoke)
    assert any(
        c.algorithm == "rackhier" and c.topology != "flat" for c in smoke
    )
    full = differential_matrix("full")
    tiered = {(c.algorithm, c.topology) for c in full if c.topology != "flat"}
    for topology in ("leaf-spine-2x", "fat-tree-2x", "fat-tree-4x"):
        assert ("ring", topology) in tiered
        assert ("rackhier", topology) in tiered
