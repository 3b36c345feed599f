"""Parameter-server collectives: BytePS-style dense push-pull and the
sparse (key-value) push-pull that Parallax uses for embedding tensors.

The tensor is partitioned across the cluster's aggregator hosts (the PS
servers).  Workers push their slice of every partition to its server;
the server reduces the ``N`` contributions and sends the result back to
every worker.  Pushes and pulls of different partitions pipeline, so
with ``K >= N`` servers the dense variant approaches the
bandwidth-optimal ``2 S / B`` per worker -- which is why BytePS tracks
NCCL so closely in the paper's Figure 5.

The sparse variant ships key-value pairs both ways; the pull size is the
*union* support of the reduced partition, so it only pays off when
worker supports barely overlap (Parallax's embedding regime).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.collective import CollectiveResult
from ..core.partition import split_ranges
from ..core.pending import PendingCollective
from ..netsim.cluster import Cluster
from ..tensors.convert import DEFAULT_CONVERSION_MODEL
from ..tensors.accumulate import CooAccumulator
from ..tensors.sparse import CooTensor
from .common import (
    LOCAL_REDUCE_BASE_S,
    LOCAL_REDUCE_PER_PAIR_S,
    MeasuredRun,
    SegmentedChannel,
    fresh_prefix,
    validate_equal_tensors,
)

__all__ = ["ParameterServerAllReduce"]

SEGMENT_BYTES = 65536


class ParameterServerAllReduce:
    """Push-pull AllReduce over the cluster's aggregator hosts."""

    def __init__(
        self,
        cluster: Cluster,
        sparse: bool = False,
        include_conversion: bool = True,
    ) -> None:
        if not cluster.aggregator_hosts:
            raise ValueError("parameter server needs aggregator hosts")
        self.cluster = cluster
        self.sparse = sparse
        self.include_conversion = include_conversion

    def allreduce(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        return self.begin(tensors).wait()

    def begin(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        """Spawn the push-pull processes and return the pending op."""
        cluster = self.cluster
        sim = cluster.sim
        flats = validate_equal_tensors(cluster, tensors)
        workers = cluster.spec.workers
        size = flats[0].size
        servers = len(cluster.aggregator_hosts)
        prefix = fresh_prefix("ps")
        flow = f"{prefix}.x"
        run = MeasuredRun(cluster, flow)

        partitions = split_ranges(size, servers)
        active_servers = len(partitions)
        hosts = cluster.worker_hosts
        server_hosts = cluster.aggregator_hosts
        transport = cluster.transport
        worker_channels = [
            SegmentedChannel(
                transport.endpoint(hosts[i], f"{prefix}.w{i}"), flow, SEGMENT_BYTES
            )
            for i in range(workers)
        ]
        server_channels = [
            SegmentedChannel(
                transport.endpoint(server_hosts[j], f"{prefix}.s{j}"),
                flow,
                SEGMENT_BYTES,
            )
            for j in range(active_servers)
        ]
        outputs = [np.zeros(size, dtype=np.float32) for _ in range(workers)]
        coos = [CooTensor.from_dense(f) for f in flats] if self.sparse else None
        conversion = DEFAULT_CONVERSION_MODEL

        def worker_proc(rank: int):
            channel = worker_channels[rank]
            if self.sparse and self.include_conversion:
                yield sim.timeout(conversion.dense_to_sparse_s(size, coos[rank].nnz))
            # Push every partition.
            for j, (lo, hi) in enumerate(partitions):
                if self.sparse:
                    piece = coos[rank].slice_range(lo, hi)
                    nbytes = max(1, piece.nbytes)
                else:
                    piece = flats[rank][lo:hi]
                    nbytes = max(1, piece.size * 4)
                channel.send(
                    server_hosts[j], f"{prefix}.s{j}", ("push", rank), piece, nbytes
                )
            # Pull every partition (servers push results back).
            waiting = {("pull", j) for j in range(active_servers)}
            total_sparse_nnz = 0
            while waiting:
                tag, piece = yield from channel.recv_any(waiting)
                waiting.discard(tag)
                lo, hi = partitions[tag[1]]
                if self.sparse:
                    outputs[rank][lo:hi] = piece.to_dense()
                    total_sparse_nnz += piece.nnz
                else:
                    outputs[rank][lo:hi] = piece
            if self.sparse and self.include_conversion:
                yield sim.timeout(conversion.sparse_to_dense_s(size, total_sparse_nnz))
            return sim.now

        def server_proc(j: int):
            channel = server_channels[j]
            lo, hi = partitions[j]
            reduced_dense: Optional[np.ndarray] = None
            # W-way fan-in into the reusable dense-scratch accumulator:
            # one O(nnz) scatter per arriving piece, in arrival order.
            acc: Optional[CooAccumulator] = None
            reduced_sparse: Optional[CooTensor] = None
            waiting = {("push", rank) for rank in range(workers)}
            while waiting:
                tag, piece = yield from channel.recv_any(waiting)
                waiting.discard(tag)
                if self.sparse:
                    if acc is None:
                        acc = CooAccumulator(piece.length, dtype=piece.values.dtype)
                    else:
                        yield sim.timeout(
                            LOCAL_REDUCE_BASE_S
                            + (acc.nnz + piece.nnz) * LOCAL_REDUCE_PER_PAIR_S
                        )
                    acc.add_coo(piece)
                else:
                    if reduced_dense is None:
                        reduced_dense = piece.copy()
                    else:
                        reduced_dense = reduced_dense + piece
            if self.sparse and acc is not None:
                reduced_sparse = acc.drain()
            for rank in range(workers):
                if self.sparse:
                    nbytes = max(1, reduced_sparse.nbytes)
                    channel.send(
                        hosts[rank], f"{prefix}.w{rank}", ("pull", j),
                        reduced_sparse, nbytes,
                    )
                else:
                    channel.send(
                        hosts[rank], f"{prefix}.w{rank}", ("pull", j),
                        reduced_dense, max(1, reduced_dense.size * 4),
                    )

        processes = [
            sim.spawn(worker_proc(rank), name=f"{prefix}-w{rank}")
            for rank in range(workers)
        ]
        for j in range(active_servers):
            sim.spawn(server_proc(j), name=f"{prefix}-s{j}")

        def waits():
            yield sim.all_of(processes)

        return PendingCollective(
            sim,
            waits,
            lambda: run.finish(
                outputs, rounds=2, sparse=float(self.sparse), servers=active_servers
            ),
            name=prefix,
        )
