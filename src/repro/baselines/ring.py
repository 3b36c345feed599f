"""Ring AllReduce -- the industry-standard dense baseline (NCCL/Gloo).

The bandwidth-optimal ring algorithm of Patarasuk & Yuan [49], as used by
NCCL and Gloo: a reduce-scatter phase (N-1 steps) followed by an
allgather phase (N-1 steps).  Each step exchanges one tensor chunk of
``S/N`` elements with the ring neighbours, giving the classic cost
``T = 2 (N-1) (alpha + S / (N B))``.

Runs on the same simulated cluster as OmniReduce (aggregator hosts are
not used), transmitting the full dense tensor -- zeros included, which
is precisely the inefficiency the paper attacks.  Chunks are segmented
(NCCL-style) so serialization pipelines and datagram transports stay
within their MTU; each step's messages carry a monotonic step tag so
that transport-level retransmission reordering cannot mix steps.
"""

from __future__ import annotations

import itertools
from typing import Dict, Sequence

import numpy as np

from ..core.collective import CollectiveResult
from ..core.partition import split_ranges
from ..core.pending import PendingCollective
from ..netsim.cluster import Cluster
from .common import MeasuredRun

__all__ = ["RingAllReduce"]

_op_ids = itertools.count()

#: Default ring segment: 8K elements (32 KiB), clamped to the MTU on
#: datagram transports.  Small enough that store-and-forward of one
#: segment is negligible against a step's chunk time, large enough that
#: per-packet costs stay small -- NCCL's slicing serves the same purpose.
SEGMENT_ELEMENTS = 8192


class RingAllReduce:
    """Ring AllReduce over a simulated cluster."""

    def __init__(self, cluster: Cluster, segment_elements: int = SEGMENT_ELEMENTS):
        if segment_elements < 1:
            raise ValueError("segment_elements must be >= 1")
        self.cluster = cluster
        max_elements = cluster.transport.max_payload_bytes() // 4
        self.segment_elements = max(1, min(segment_elements, max_elements))

    def allreduce(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        return self.begin(tensors).wait()

    def begin(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        """Spawn the ring processes and return the pending operation."""
        spec = self.cluster.spec
        sim = self.cluster.sim
        if len(tensors) != spec.workers:
            raise ValueError(f"expected {spec.workers} tensors, got {len(tensors)}")
        flats = [np.ascontiguousarray(t, dtype=np.float32).reshape(-1) for t in tensors]
        size = flats[0].size
        if any(f.size != size for f in flats):
            raise ValueError("all workers must supply tensors of equal length")
        if size == 0:
            raise ValueError("cannot reduce empty tensors")

        from ..netsim.loss import NoLoss
        from ..netsim.transport import DatagramTransport

        if isinstance(self.cluster.transport, DatagramTransport) and not isinstance(
            self.cluster.network.loss, NoLoss
        ):
            raise ValueError(
                "ring AllReduce has no loss recovery; use the tcp or rdma "
                "transport on lossy networks"
            )

        workers = spec.workers
        op_id = next(_op_ids)
        prefix = f"ring{op_id}"
        flow = f"{prefix}.ring"
        run = MeasuredRun(self.cluster, flow)

        outputs = [f.copy() for f in flats]
        if workers == 1:
            return PendingCollective.completed(sim, run.finish(outputs), name=prefix)

        chunks = split_ranges(size, workers)
        while len(chunks) < workers:  # more workers than elements
            chunks.append((size, size))

        transport = self.cluster.transport
        hosts = self.cluster.worker_hosts
        endpoints = [
            transport.endpoint(hosts[i], f"{prefix}.w{i}") for i in range(workers)
        ]
        seg_elems = self.segment_elements

        def worker_proc(rank: int):
            local = outputs[rank]
            succ = (rank + 1) % workers
            mailbox = endpoints[rank]
            # Buffer for segments of not-yet-expected steps (transport
            # retransmissions can reorder across step boundaries).
            pending: Dict[int, Dict[int, np.ndarray]] = {}
            seg_counts: Dict[int, int] = {}

            def send_step(step: int, data: np.ndarray) -> None:
                nseg = max(1, -(-data.size // seg_elems))
                for seg in range(nseg):
                    part = data[seg * seg_elems : (seg + 1) * seg_elems]
                    mailbox.send(
                        hosts[succ],
                        f"{prefix}.w{succ}",
                        (step, seg, nseg, part),
                        max(1, part.size * 4),
                        flow=flow,
                    )

            def recv_step(step: int):
                while True:
                    if step in seg_counts and len(pending[step]) == seg_counts[step]:
                        parts = pending.pop(step)
                        nseg = seg_counts.pop(step)
                        if nseg == 1:
                            return parts[0]
                        return np.concatenate([parts[i] for i in range(nseg)])
                    packet = yield mailbox.recv()
                    got_step, seg, nseg, part = packet.payload
                    pending.setdefault(got_step, {})[seg] = part
                    seg_counts[got_step] = nseg

            # Phase 1: reduce-scatter.
            for step in range(workers - 1):
                send_id = (rank - step) % workers
                lo, hi = chunks[send_id]
                send_step(step, local[lo:hi])
                data = yield from recv_step(step)
                recv_id = (rank - step - 1) % workers
                lo, hi = chunks[recv_id]
                if hi > lo:
                    local[lo:hi] += data
            # Phase 2: allgather.
            for step in range(workers - 1):
                tag = workers - 1 + step
                send_id = (rank + 1 - step) % workers
                lo, hi = chunks[send_id]
                send_step(tag, local[lo:hi])
                data = yield from recv_step(tag)
                recv_id = (rank - step) % workers
                lo, hi = chunks[recv_id]
                if hi > lo:
                    local[lo:hi] = data
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
            lambda: run.finish(outputs, rounds=2 * (workers - 1)),
            name=prefix,
        )
