"""Buffer memory accounting: AGsparse grows with workers, OmniReduce's
aggregator pool does not (§2)."""

import numpy as np

from repro.baselines import AGsparseAllReduce
from repro.core import OmniReduce, OmniReduceConfig
from repro.netsim import Cluster, ClusterSpec
from repro.tensors import block_sparse_tensors


def inputs(workers=4, sparsity=0.5, blocks=32, seed=0):
    return block_sparse_tensors(
        workers, blocks * 16, 16, sparsity, rng=np.random.default_rng(seed)
    )


def test_agsparse_memory_grows_with_workers():
    """§2: AGsparse buffers N pieces; OmniReduce's pool is constant."""
    peaks = {}
    for workers in (2, 4, 8):
        cluster = Cluster(
            ClusterSpec(workers=workers, aggregators=2, bandwidth_gbps=10,
                        transport="tcp")
        )
        result = AGsparseAllReduce(cluster).allreduce(
            inputs(workers=workers, sparsity=0.5)
        )
        peaks[workers] = result.details["peak_buffer_bytes"]
    assert peaks[2] < peaks[4] < peaks[8]


def test_omnireduce_pool_independent_of_workers_and_size():
    pools = {}
    for workers, blocks in ((2, 32), (8, 32), (8, 256)):
        cluster = Cluster(
            ClusterSpec(workers=workers, aggregators=2, bandwidth_gbps=10,
                        transport="rdma")
        )
        config = OmniReduceConfig(block_size=16, streams_per_shard=2,
                                  message_bytes=512)
        result = OmniReduce(cluster, config).allreduce(
            inputs(workers=workers, blocks=blocks)
        )
        pools[(workers, blocks)] = result.details["aggregator_pool_bytes"]
    assert pools[(2, 32)] == pools[(8, 32)] == pools[(8, 256)]
