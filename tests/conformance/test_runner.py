"""The conformance runner and its case matrix."""

import numpy as np
import pytest

from repro.baselines import registry
from repro.conformance import (
    ConformanceCase,
    default_matrix,
    differential_matrix,
    run_case,
    sweep,
)
from repro.core.features import ProtocolFeatures


def test_case_validation():
    with pytest.raises(ValueError, match="pattern"):
        ConformanceCase(pattern="nope")
    with pytest.raises(ValueError, match="fault"):
        ConformanceCase(fault="nope")
    with pytest.raises(ValueError, match="at least one block"):
        ConformanceCase(elements=8, block_size=64)


def test_case_id_round_trip_fields():
    case = ConformanceCase(
        algorithm="ring", workers=2, fault="ge-loss", mutant="broken-result", seed=3
    )
    cid = case.case_id
    for token in ("ring", "w2", "ge-loss", "mutant:broken-result", "s3"):
        assert token in cid


def test_case_id_names_non_default_aggregators():
    assert "/a2/" in ConformanceCase(workers=4, aggregators=2).case_id
    assert ConformanceCase(workers=4).case_id.startswith("omnireduce/w4/n")


def test_case_features_reach_every_algorithm():
    """A case's ``features`` run for every algorithm its id names, not
    only OmniReduce: rackhier without zero-block suppression streams
    every block."""
    features = ProtocolFeatures(zero_block_suppression=False)
    base = ConformanceCase(algorithm="rackhier", workers=4, aggregators=2)
    case = base.with_(features=features)
    assert "no-zero_block_suppression" in case.case_id
    assert case.options().features == features
    default, ablated = run_case(base), run_case(case)
    assert default.ok and ablated.ok
    assert ablated.result.bytes_sent > default.result.bytes_sent


@pytest.mark.parametrize("level", ["smoke", "full"])
@pytest.mark.parametrize("matrix", [default_matrix, differential_matrix])
def test_matrix_case_ids_are_unique(matrix, level):
    ids = [case.case_id for case in matrix(level)]
    assert len(set(ids)) == len(ids)


def test_run_case_is_deterministic():
    case = ConformanceCase(workers=2, elements=512, block_size=64, seed=9)
    a = run_case(case)
    b = run_case(case)
    assert a.ok and b.ok
    assert a.result.time_s == b.result.time_s
    assert a.result.bytes_sent == b.result.bytes_sent
    np.testing.assert_array_equal(a.result.outputs[0], b.result.outputs[0])


def test_single_case_passes_with_monitors():
    report = run_case(ConformanceCase(workers=2, elements=256, block_size=32))
    assert report.ok, report.summary()
    assert report.result.packets_sent > 0
    assert report.max_abs_err <= 1e-5


def test_matrix_covers_every_registry_algorithm():
    for level in ("smoke", "full"):
        cases = default_matrix(level)
        swept = {c.algorithm for c in cases}
        assert swept == set(registry.ALGORITHMS), (
            f"{level} matrix misses {set(registry.ALGORITHMS) - swept}"
        )
    assert len(default_matrix("full")) > len(default_matrix("smoke"))
    with pytest.raises(ValueError):
        default_matrix("everything")


def test_matrix_covers_required_axes():
    cases = default_matrix("full")
    assert {c.pattern for c in cases} == {"uniform", "clustered", "all-zero", "dense"}
    assert {c.dtype for c in cases} >= {"float16", "float32", "float64"}
    assert {c.transport for c in cases} == {"rdma", "tcp", "dpdk"}
    assert {c.fault for c in cases} == {
        "none", "bernoulli-loss", "ge-loss", "crash-failover", "straggler"
    }
    assert any(c.elements % c.block_size != 0 for c in cases)


@pytest.mark.conformance
def test_smoke_sweep_is_clean():
    """Every registry algorithm conforms on the smoke matrix."""
    reports = sweep(default_matrix("smoke"))
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(r.summary() for r in bad)


@pytest.mark.conformance
def test_lossy_fault_cases_exercise_recovery():
    """Loss cases actually drop packets and recover via retransmission."""
    report = run_case(
        ConformanceCase(transport="dpdk", fault="ge-loss", seed=0)
    )
    assert report.ok, report.summary()
    assert report.result.retransmissions > 0
    assert report.result.complete
