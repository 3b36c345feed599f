"""Tests for block-size auto-tuning."""

import numpy as np
import pytest

from repro.core import OmniReduce, OmniReduceConfig
from repro.core.autotune import autotune_block_size
from repro.ddl import WORKLOADS, GradientModel
from repro.netsim import Cluster, ClusterSpec
from repro.tensors import block_sparse_tensors


def test_dense_data_prefers_large_blocks():
    rng = np.random.default_rng(0)
    tensors = [rng.standard_normal(1 << 16).astype(np.float32) for _ in range(4)]
    choice = autotune_block_size(tensors)
    assert choice.block_size >= 256


def test_fine_grained_sparsity_prefers_small_blocks():
    """Rows of 64 elements: blocks of 64 skip everything skippable;
    blocks of 1024 drag 16x the data."""
    tensors = GradientModel(WORKLOADS["deeplight"]).generate(
        4, 1 << 17, np.random.default_rng(1)
    )
    choice = autotune_block_size(tensors)
    assert choice.block_size <= 128
    # The density table shows why: union density grows with block size.
    assert choice.union_density[64] < choice.union_density[1024]


def test_predictions_cover_all_candidates():
    rng = np.random.default_rng(2)
    tensors = [rng.standard_normal(4096).astype(np.float32)]
    choice = autotune_block_size(tensors, candidates=(64, 256))
    assert set(choice.predictions) == {64, 256}
    assert choice.predicted_time_s == min(choice.predictions.values())


def test_ranking_matches_simulation_on_a_clear_case():
    """For row-structured sparse gradients, the autotuner's preferred
    block size must actually simulate faster than a much larger one."""
    tensors = GradientModel(WORKLOADS["deeplight"]).generate(
        4, 1 << 17, np.random.default_rng(3)
    )
    choice = autotune_block_size(tensors, candidates=(64, 1024))
    assert choice.block_size == 64

    def simulate(block_size):
        cluster = Cluster(
            ClusterSpec(workers=4, aggregators=4, bandwidth_gbps=10,
                        transport="rdma")
        )
        config = OmniReduceConfig(block_size=block_size)
        return OmniReduce(cluster, config).allreduce(tensors).time_s

    assert simulate(64) < simulate(1024)


def test_validation():
    with pytest.raises(ValueError):
        autotune_block_size([])
    with pytest.raises(ValueError):
        autotune_block_size([np.ones(8, np.float32)], candidates=())
    with pytest.raises(ValueError):
        autotune_block_size([np.ones(8, np.float32)], candidates=(0,))
