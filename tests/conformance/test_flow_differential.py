"""The packet-vs-flow differential gauntlet.

Every registry algorithm must pass :func:`run_differential`:
bit-identical tensors, exactly equal wire counters, completion time
within the documented tolerance.  Unsupported axes must be *refused*
(silently producing numbers would be worse than failing).  The
flow-only mutants that prove the differential catches wrong timing and
wrong billing run in the kill matrix (``test_mutants.py``).
"""

import pytest

from repro.baselines import registry
from repro.conformance import (
    ConformanceCase,
    differential_matrix,
    flow_capable,
    run_differential,
)

pytestmark = [pytest.mark.conformance, pytest.mark.flowmode]


def test_sim_mode_is_validated_and_tagged():
    case = ConformanceCase(sim_mode="flow")
    assert "/flow/" in case.case_id
    assert "flow" not in ConformanceCase().case_id
    with pytest.raises(ValueError):
        ConformanceCase(sim_mode="warp")


@pytest.mark.parametrize("algorithm", sorted(registry.ALGORITHMS))
def test_differential_every_registry_algorithm(algorithm):
    report = run_differential(ConformanceCase(algorithm=algorithm))
    assert report.ok, report.summary()
    assert report.unsupported is None


def test_differential_all_zero_pattern():
    report = run_differential(
        ConformanceCase(algorithm="omnireduce", pattern="all-zero")
    )
    assert report.ok, report.summary()


def test_differential_straggler_fault():
    report = run_differential(
        ConformanceCase(algorithm="omnireduce", fault="straggler")
    )
    assert report.ok, report.summary()
    assert report.unsupported is None


@pytest.mark.parametrize(
    "axes",
    [
        {"transport": "dpdk"},
        {"fault": "ge-loss"},
        {"fault": "bernoulli-loss"},
        {"fault": "crash-failover"},
    ],
    ids=lambda axes: "-".join(f"{k}={v}" for k, v in axes.items()),
)
def test_unsupported_axes_are_refused_not_simulated(axes):
    case = ConformanceCase(algorithm="omnireduce", **axes)
    assert flow_capable(case) is not None
    report = run_differential(case)
    # The report passes *because* flow mode raised FlowUnsupported.
    assert report.unsupported is not None
    assert report.ok, report.summary()


def test_smoke_matrix_is_flow_capable_and_covers_every_algorithm():
    cases = differential_matrix("smoke")
    assert {c.algorithm for c in cases} == set(registry.ALGORITHMS)
    # Every case is flow-capable except the deliberate refusal rows:
    # flat OmniReduce on a tiered topology must raise FlowUnsupported,
    # and the matrix keeps one such row to prove it does.
    refusals = [c for c in cases if flow_capable(c) is not None]
    assert all(flow_capable(c) is None for c in cases if c.topology == "flat")
    assert refusals, "smoke matrix lost its topology-refusal row"
    assert all(c.topology != "flat" for c in refusals)
