"""AGsparse: AllGather-based sparse AllReduce (PyTorch's strawman, §2.1).

Every worker converts its tensor to key-value (COO) form, the cluster
performs a ring AllGather of everyone's indices and values, and each
worker reduces the ``N`` sparse tensors locally.  Communication grows
with ``N`` (``(N-1) * 2 D S / B``), reduction is serialized after
communication, and the memory footprint is proportional to ``N`` -- the
three weaknesses the paper's §3.4 analysis targets.

Two backend flavours reproduce the paper's AGsparse(NCCL) and
AGsparse(Gloo) curves: Gloo pays a substantially higher per-step
software overhead (kernel TCP copies and rendezvous), which is what
separates the two in Figure 6.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.collective import CollectiveResult
from ..core.pending import PendingCollective
from ..netsim.cluster import Cluster
from ..tensors.convert import DEFAULT_CONVERSION_MODEL
from ..tensors.encodings import bitmask_bytes, run_length_bytes
from ..tensors.accumulate import coo_sum
from ..tensors.sparse import CooTensor
from .common import (
    LOCAL_REDUCE_BASE_S,
    LOCAL_REDUCE_PER_PAIR_S,
    MeasuredRun,
    SegmentedChannel,
    fresh_prefix,
    validate_equal_tensors,
)

__all__ = [
    "AGsparseAllReduce",
    "BACKEND_OVERHEADS",
    "INDEX_ENCODINGS",
]

#: Per-AllGather-step software overhead by backend flavour (seconds).
BACKEND_OVERHEADS = {"nccl": 5e-6, "gloo": 120e-6}

#: Index representations for the gathered key-value data (§2's strawman
#: variants: explicit keys, a dense bitmask [60], or run-length gaps [23]).
INDEX_ENCODINGS = ("coo", "bitmask", "rle")

SEGMENT_BYTES = 65536


def _encoded_bytes(coo: CooTensor, encoding: str) -> int:
    """Wire bytes of one sparse piece under the chosen index encoding."""
    if encoding == "coo":
        return coo.nbytes
    if encoding == "bitmask":
        return bitmask_bytes(coo.length, coo.nnz)
    # rle: runs alternate zero-gap / value-run; count value runs from the
    # index stream (a gap > 1 starts a new run).
    if coo.nnz == 0:
        runs = 1
    else:
        import numpy as _np

        value_runs = 1 + int(_np.sum(_np.diff(coo.indices) > 1))
        runs = 2 * value_runs + 1
    return run_length_bytes(runs, coo.nnz)


class AGsparseAllReduce:
    """AllGather-based sparse AllReduce."""

    def __init__(
        self,
        cluster: Cluster,
        backend: str = "nccl",
        include_conversion: bool = True,
        index_encoding: str = "coo",
    ) -> None:
        if backend not in BACKEND_OVERHEADS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {sorted(BACKEND_OVERHEADS)}"
            )
        if index_encoding not in INDEX_ENCODINGS:
            raise ValueError(
                f"unknown index encoding {index_encoding!r}; "
                f"choose from {INDEX_ENCODINGS}"
            )
        self.cluster = cluster
        self.backend = backend
        self.step_overhead_s = BACKEND_OVERHEADS[backend]
        self.include_conversion = include_conversion
        self.index_encoding = index_encoding

    def allreduce(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        return self.begin(tensors).wait()

    def begin(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        """Spawn the AllGather processes and return the pending op."""
        cluster = self.cluster
        sim = cluster.sim
        flats = validate_equal_tensors(cluster, tensors)
        workers = cluster.spec.workers
        size = flats[0].size
        prefix = fresh_prefix("ags")
        flow = f"{prefix}.gather"
        run = MeasuredRun(cluster, flow)

        coos = [CooTensor.from_dense(f) for f in flats]
        outputs: List[Optional[np.ndarray]] = [None] * workers
        # §2: AGsparse "increments the memory footprint despite sparse
        # data" -- every worker buffers all N gathered pieces.
        peak_buffer = {"bytes": 0}
        hosts = cluster.worker_hosts
        transport = cluster.transport
        channels = [
            SegmentedChannel(
                transport.endpoint(hosts[i], f"{prefix}.w{i}"), flow, SEGMENT_BYTES
            )
            for i in range(workers)
        ]
        conversion = DEFAULT_CONVERSION_MODEL

        def worker_proc(rank: int):
            channel = channels[rank]
            succ = (rank + 1) % workers

            if self.include_conversion:
                yield sim.timeout(
                    conversion.dense_to_sparse_s(size, coos[rank].nnz)
                )

            gathered: List[Optional[CooTensor]] = [None] * workers
            gathered[rank] = coos[rank]
            # Ring AllGather: at step t forward the piece that originated
            # at rank (rank - t) % N.
            current = coos[rank]
            for step in range(workers - 1):
                if self.step_overhead_s:
                    yield sim.timeout(self.step_overhead_s)
                channel.send(
                    hosts[succ], f"{prefix}.w{succ}", step, current,
                    max(1, _encoded_bytes(current, self.index_encoding)),
                )
                current = yield from channel.recv(step)
                origin = (rank - step - 1) % workers
                gathered[origin] = current

            # Local reduction, serialized after communication (§2.1).
            buffered = sum(c.nbytes for c in gathered if c is not None)
            peak_buffer["bytes"] = max(peak_buffer["bytes"], buffered)
            total_pairs = sum(c.nnz for c in gathered)
            yield sim.timeout(
                LOCAL_REDUCE_BASE_S + total_pairs * LOCAL_REDUCE_PER_PAIR_S
            )
            # K-way fold through the dense-scratch accumulator: one
            # scatter pass per gathered piece instead of N-1 pairwise
            # merges, same sequential summation order.
            reduced = coo_sum(gathered)

            if self.include_conversion:
                yield sim.timeout(conversion.sparse_to_dense_s(size, reduced.nnz))
            outputs[rank] = reduced.to_dense()
            return sim.now

        processes = [
            sim.spawn(worker_proc(rank), name=f"{prefix}-w{rank}")
            for rank in range(workers)
        ]

        def waits():
            yield sim.all_of(processes)

        def finalize():
            return run.finish(
                [out for out in outputs],  # type: ignore[arg-type]
                rounds=workers - 1,
                backend=self.backend,
                index_encoding=self.index_encoding,
                peak_buffer_bytes=peak_buffer["bytes"],
            )

        return PendingCollective(sim, waits, finalize, name=prefix)
