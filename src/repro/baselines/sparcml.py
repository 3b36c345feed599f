"""SparCML sparse collectives (Renggli et al. [55], §2.1).

Three algorithms are implemented against the same simulated cluster:

* ``SSAR_Split_allgather`` -- static sparse AllReduce for large inputs:
  (1) the index space is split into ``N`` partitions and every worker
  sends its sparse slice of partition ``p`` to worker ``p``, which
  reduces them; (2) a concatenating ring AllGather distributes the
  reduced sparse partitions to everyone.
* ``DSAR_Split_allgather`` -- dynamic variant: a reduced partition whose
  fill exceeds the sparse-format break-even point
  ``rho = len * c_v / (c_i + c_v)`` (i.e. half, with 4-byte keys and
  values) switches to the dense representation for the gather phase.
* recursive doubling -- the latency-optimal algorithm SparCML uses for
  small inputs: ``log2 N`` exchange-and-merge rounds (non-power-of-two
  worker counts fold the extras onto partners first).

``SparCML`` dispatches between them with a latency-bandwidth rule, as
the original system does.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.collective import CollectiveResult
from ..core.partition import split_ranges
from ..core.pending import PendingCollective
from ..netsim.cluster import Cluster
from ..tensors.convert import DEFAULT_CONVERSION_MODEL
from ..tensors.sparse import CooTensor, INDEX_BYTES, VALUE_BYTES
from .common import (
    LOCAL_REDUCE_BASE_S,
    LOCAL_REDUCE_PER_PAIR_S,
    MeasuredRun,
    SegmentedChannel,
    fresh_prefix,
    validate_equal_tensors,
)

__all__ = ["SparCML", "SPARCML_MODES"]

SPARCML_MODES = ("ssar", "dsar", "rd", "auto")
SEGMENT_BYTES = 65536

#: Below this per-worker payload the latency term dominates and
#: recursive doubling wins (SparCML's small-message regime).
RD_THRESHOLD_BYTES = 32 * 1024


def _merge_cost_s(pairs: int) -> float:
    return LOCAL_REDUCE_BASE_S + pairs * LOCAL_REDUCE_PER_PAIR_S


class SparCML:
    """SparCML-style sparse AllReduce with selectable algorithm."""

    def __init__(
        self,
        cluster: Cluster,
        mode: str = "auto",
        include_conversion: bool = True,
    ) -> None:
        if mode not in SPARCML_MODES:
            raise ValueError(f"mode must be one of {SPARCML_MODES}, got {mode!r}")
        self.cluster = cluster
        self.mode = mode
        self.include_conversion = include_conversion

    # -- dispatch ---------------------------------------------------------

    def allreduce(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        return self.begin(tensors).wait()

    def begin(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        """Spawn the chosen algorithm's processes; return the pending op."""
        flats = validate_equal_tensors(self.cluster, tensors)
        coos = [CooTensor.from_dense(f) for f in flats]
        mode = self.mode
        if mode == "auto":
            avg_bytes = sum(c.nbytes for c in coos) / max(1, len(coos))
            mode = "rd" if avg_bytes < RD_THRESHOLD_BYTES else "dsar"
        if mode == "rd":
            return self._recursive_doubling(flats, coos, chosen=mode)
        return self._split_allgather(flats, coos, dynamic=(mode == "dsar"), chosen=mode)

    # -- split-allgather (SSAR / DSAR) --------------------------------------

    def _split_allgather(
        self,
        flats: List[np.ndarray],
        coos: List[CooTensor],
        dynamic: bool,
        chosen: str,
    ) -> PendingCollective:
        cluster = self.cluster
        sim = cluster.sim
        workers = cluster.spec.workers
        size = flats[0].size
        prefix = fresh_prefix("scml")
        flow = f"{prefix}.x"
        run = MeasuredRun(cluster, flow)
        hosts = cluster.worker_hosts
        transport = cluster.transport
        channels = [
            SegmentedChannel(
                transport.endpoint(hosts[i], f"{prefix}.w{i}"), flow, SEGMENT_BYTES
            )
            for i in range(workers)
        ]
        partitions = split_ranges(size, workers)
        while len(partitions) < workers:
            partitions.append((size, size))
        outputs: List[Optional[np.ndarray]] = [None] * workers
        conversion = DEFAULT_CONVERSION_MODEL

        def worker_proc(rank: int):
            channel = channels[rank]
            if self.include_conversion:
                yield sim.timeout(conversion.dense_to_sparse_s(size, coos[rank].nnz))

            # Phase 1: scatter sparse slices; worker p owns partition p.
            for p in range(workers):
                if p == rank:
                    continue
                lo, hi = partitions[p]
                piece = coos[rank].slice_range(lo, hi)
                channel.send(
                    hosts[p], f"{prefix}.w{p}", ("A", rank), piece, max(1, piece.nbytes)
                )
            lo, hi = partitions[rank]
            reduced = coos[rank].slice_range(lo, hi)
            waiting = {("A", sender) for sender in range(workers) if sender != rank}
            while waiting:
                # Merge slices from the other workers in arrival order.
                tag, piece = yield from channel.recv_any(waiting)
                waiting.discard(tag)
                yield sim.timeout(_merge_cost_s(reduced.nnz + piece.nnz))
                reduced = reduced.add(piece)

            # Representation switch (DSAR only).
            part_len = partitions[rank][1] - partitions[rank][0]
            rho = part_len * VALUE_BYTES / (INDEX_BYTES + VALUE_BYTES)
            if dynamic and reduced.nnz > rho:
                my_piece: Tuple[str, object] = ("dense", reduced.to_dense())
                my_bytes = part_len * VALUE_BYTES
            else:
                my_piece = ("sparse", reduced)
                my_bytes = max(1, reduced.nbytes)

            # Phase 2: concatenating ring AllGather of reduced partitions.
            succ = (rank + 1) % workers
            pieces: List[Optional[Tuple[str, object]]] = [None] * workers
            pieces[rank] = my_piece
            current, current_bytes = my_piece, my_bytes
            for step in range(workers - 1):
                channel.send(
                    hosts[succ], f"{prefix}.w{succ}", ("B", step), current, current_bytes
                )
                current = yield from channel.recv(("B", step))
                kind, payload = current
                current_bytes = (
                    part_len * VALUE_BYTES
                    if kind == "dense"
                    else max(1, payload.nbytes)
                )
                origin = (rank - step - 1) % workers
                pieces[origin] = current

            # Assemble the dense output.
            output = np.zeros(size, dtype=np.float32)
            sparse_nnz = 0
            for p, piece in enumerate(pieces):
                lo, hi = partitions[p]
                if hi == lo:
                    continue
                kind, payload = piece
                if kind == "dense":
                    output[lo:hi] = payload
                else:
                    output[lo:hi] = payload.to_dense()
                    sparse_nnz += payload.nnz
            if self.include_conversion:
                yield sim.timeout(conversion.sparse_to_dense_s(size, sparse_nnz))
            outputs[rank] = output
            return sim.now

        processes = [
            sim.spawn(worker_proc(rank), name=f"{prefix}-w{rank}")
            for rank in range(workers)
        ]

        def waits():
            yield sim.all_of(processes)

        return PendingCollective(
            sim,
            waits,
            lambda: run.finish(list(outputs), rounds=workers - 1, algorithm=chosen),
            name=prefix,
        )

    # -- recursive doubling --------------------------------------------------

    def _recursive_doubling(
        self, flats: List[np.ndarray], coos: List[CooTensor], chosen: str
    ) -> PendingCollective:
        cluster = self.cluster
        sim = cluster.sim
        workers = cluster.spec.workers
        size = flats[0].size
        prefix = fresh_prefix("scrd")
        flow = f"{prefix}.x"
        run = MeasuredRun(cluster, flow)
        hosts = cluster.worker_hosts
        transport = cluster.transport
        channels = [
            SegmentedChannel(
                transport.endpoint(hosts[i], f"{prefix}.w{i}"), flow, SEGMENT_BYTES
            )
            for i in range(workers)
        ]
        p2 = 1
        while p2 * 2 <= workers:
            p2 *= 2
        extras = workers - p2
        outputs: List[Optional[np.ndarray]] = [None] * workers
        conversion = DEFAULT_CONVERSION_MODEL

        def worker_proc(rank: int):
            channel = channels[rank]
            if self.include_conversion:
                yield sim.timeout(conversion.dense_to_sparse_s(size, coos[rank].nnz))
            reduced = coos[rank]

            if rank >= p2:
                partner = rank - p2
                channel.send(
                    hosts[partner], f"{prefix}.w{partner}", "fold", reduced,
                    max(1, reduced.nbytes),
                )
                reduced = yield from channel.recv("final")
            else:
                if rank < extras:
                    piece = yield from channel.recv("fold")
                    yield sim.timeout(_merge_cost_s(reduced.nnz + piece.nnz))
                    reduced = reduced.add(piece)
                for k in range(p2.bit_length() - 1):
                    partner = rank ^ (1 << k)
                    channel.send(
                        hosts[partner], f"{prefix}.w{partner}", ("rd", k), reduced,
                        max(1, reduced.nbytes),
                    )
                    piece = yield from channel.recv(("rd", k))
                    yield sim.timeout(_merge_cost_s(reduced.nnz + piece.nnz))
                    reduced = reduced.add(piece)
                if rank < extras:
                    partner = rank + p2
                    channel.send(
                        hosts[partner], f"{prefix}.w{partner}", "final", reduced,
                        max(1, reduced.nbytes),
                    )

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

        return PendingCollective(
            sim,
            waits,
            lambda: run.finish(
                list(outputs), rounds=p2.bit_length() - 1, algorithm=chosen
            ),
            name=prefix,
        )
