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
from repro.conformance.monitors import RetransmitBackoffMonitor
from repro.core.features import DEFAULT_FEATURES, ProtocolFeatures


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


def test_explicit_features_beat_the_fault_defaults():
    """A lossy case that ablates backoff runs, and is monitored, with
    backoff off: its explicit features win over the fault plan's
    backoff default."""
    case = ConformanceCase(
        transport="dpdk",
        fault="bernoulli-loss",
        elements=8192,
        features=DEFAULT_FEATURES.with_(backoff_factor=2.0).disable(
            "retransmit_backoff"
        ),
    )
    assert "no-retransmit_backoff" in case.case_id
    assert case.config().features.backoff_factor == 1.0
    assert case.options().config.features.backoff_factor == 1.0
    (monitor,) = [
        m for m in case.monitors() if isinstance(m, RetransmitBackoffMonitor)
    ]
    assert monitor.backoff_factor == 1.0
    report = run_case(case)
    assert report.ok, report.summary()
    assert report.result.retransmissions > 0


@pytest.mark.parametrize("algorithm", ["omnireduce", "rackhier", "switchml"])
def test_case_block_size_reaches_the_engine(algorithm):
    """The block size a case id names is the one its algorithm runs.
    Dense tensors do not depend on the block size, so any change in
    wire bytes comes from the protocol's block size alone."""
    small, large = (
        ConformanceCase(
            algorithm=algorithm, pattern="dense", elements=4096, block_size=bs
        )
        for bs in (64, 256)
    )
    for a, b in zip(small.tensors(), large.tensors()):
        np.testing.assert_array_equal(a, b)
    reports = [run_case(small), run_case(large)]
    for report in reports:
        assert report.ok, report.summary()
    assert reports[0].result.bytes_sent != reports[1].result.bytes_sent


def test_block_free_algorithms_take_no_block_size():
    """Block-free algorithms use the block size only to shape tensors."""
    assert ConformanceCase(algorithm="ring", block_size=256).options() == (
        ConformanceCase(algorithm="ring", block_size=64).options()
    )


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
