"""Compute/communication overlap via gradient-readiness schedules (§5)."""

import numpy as np
import pytest

from repro.core import OmniReduce, OmniReduceConfig
from repro.core.prefetch import LinearReadiness
from repro.netsim import Cluster, ClusterSpec
from repro.tensors import block_sparse_tensors


def make_cluster():
    return Cluster(
        ClusterSpec(workers=4, aggregators=4, bandwidth_gbps=10, transport="rdma")
    )


def inputs(sparsity=0.0, blocks=1024, seed=0):
    return block_sparse_tensors(
        4, blocks * 256, 256, sparsity, rng=np.random.default_rng(seed)
    )


def test_linear_readiness_schedule():
    sched = LinearReadiness(total_bytes=1000, duration_s=1.0, reverse=False)
    assert sched.available_at(0) == 0.0
    assert sched.available_at(500) == pytest.approx(0.5)
    assert sched.available_at(1000) == pytest.approx(1.0)
    assert sched.finish_s == 1.0


def test_linear_readiness_reverse_orders_back_to_front():
    sched = LinearReadiness(total_bytes=1000, duration_s=1.0, reverse=True)
    # The tail is produced first (the backward pass starts at the loss).
    assert sched.available_at(1000) < sched.available_at(10)


def test_linear_readiness_validation():
    with pytest.raises(ValueError):
        LinearReadiness(-1, 1.0)
    with pytest.raises(ValueError):
        LinearReadiness(10, -1.0)
    with pytest.raises(ValueError):
        LinearReadiness(10, 1.0).available_at(11)


def test_overlap_result_still_exact():
    tensors = inputs()
    nbytes = tensors[0].nbytes
    readiness = [LinearReadiness(nbytes, duration_s=2e-3) for _ in range(4)]
    result = OmniReduce(make_cluster()).allreduce(
        tensors, gradient_readiness=readiness
    )
    np.testing.assert_allclose(
        result.output, np.sum(np.stack(tensors), axis=0), rtol=1e-4, atol=1e-4
    )


def test_overlap_saves_time_over_serialized_execution():
    """Streaming while the gradient is produced beats produce-then-reduce.

    The saving is partial, not total: the global block striping spreads
    every stream (and every fused packet) across the whole tensor, so
    early rounds still wait for a large production prefix -- a real
    design tension between stripe-balancing and production-order
    overlap.
    """
    tensors = inputs()
    nbytes = tensors[0].nbytes
    serial = OmniReduce(make_cluster()).allreduce(tensors)
    backward_s = serial.time_s  # comparable durations: best overlap case
    overlapped = OmniReduce(make_cluster()).allreduce(
        tensors,
        gradient_readiness=[
            LinearReadiness(nbytes, duration_s=backward_s) for _ in range(4)
        ],
    )
    serialized_total = backward_s + serial.time_s
    assert overlapped.time_s < serialized_total * 0.95
    # But it cannot beat the production duration itself.
    assert overlapped.time_s >= backward_s


def test_striping_makes_overlap_insensitive_to_production_order():
    """Because blocks are striped across streams, the protocol touches
    the whole tensor uniformly from the first rounds -- back-to-front
    and front-to-back production overlap identically (robustness the
    contiguous layout would not have)."""
    tensors = inputs()
    nbytes = tensors[0].nbytes
    duration = 2e-3

    def run(reverse):
        return OmniReduce(make_cluster()).allreduce(
            tensors,
            gradient_readiness=[
                LinearReadiness(nbytes, duration_s=duration, reverse=reverse)
                for _ in range(4)
            ],
        ).time_s

    assert run(True) == pytest.approx(run(False), rel=0.05)


def test_readiness_composes_with_prefetch():
    """Non-GDR: a block is gated by gradient production AND PCIe copy."""
    cluster = Cluster(
        ClusterSpec(workers=2, aggregators=1, bandwidth_gbps=100,
                    transport="rdma", pcie_gbps=96.0)
    )
    tensors = block_sparse_tensors(2, 256 * 512, 256, 0.0,
                                   rng=np.random.default_rng(1))
    nbytes = tensors[0].nbytes
    slow_backward = 10e-3  # far slower than the PCIe copy
    result = OmniReduce(cluster).allreduce(
        tensors,
        gradient_readiness=[
            LinearReadiness(nbytes, duration_s=slow_backward) for _ in range(2)
        ],
    )
    # Completion is readiness-bound, not copy-bound.
    assert result.time_s >= slow_backward


def test_readiness_validation():
    omni = OmniReduce(make_cluster())
    with pytest.raises(ValueError):
        omni.allreduce(
            inputs(), gradient_readiness=[LinearReadiness(1024 * 256 * 4, 1e-3)]
        )
