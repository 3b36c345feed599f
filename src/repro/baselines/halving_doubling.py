"""Recursive halving-doubling AllReduce.

The other classic dense algorithm (Thakur et al. [64], used by NCCL and
MPI for latency-sensitive sizes): a recursive-halving reduce-scatter
(log2 N rounds, exchanging S/2, S/4, ... with partners at doubling
distances) followed by a recursive-doubling allgather.  Bandwidth cost
matches the ring (``2 (N-1)/N * S/B``) but with ``2 log2 N`` latency
terms instead of ``2 (N-1)`` -- the crossover against the ring is a
latency-vs-bandwidth trade the performance model exposes.

Non-power-of-two worker counts fold the extras onto partners first, as
in the standard MPI formulation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.collective import CollectiveResult
from ..core.pending import PendingCollective
from ..netsim.cluster import Cluster
from .common import MeasuredRun, SegmentedChannel, fresh_prefix, validate_equal_tensors

__all__ = ["HalvingDoublingAllReduce"]

SEGMENT_BYTES = 65536


class HalvingDoublingAllReduce:
    """Recursive halving-doubling AllReduce over a simulated cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    def allreduce(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        return self.begin(tensors).wait()

    def begin(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        """Spawn the halving-doubling processes; return the pending op."""
        cluster = self.cluster
        sim = cluster.sim
        flats = validate_equal_tensors(cluster, tensors)
        workers = cluster.spec.workers
        size = flats[0].size
        prefix = fresh_prefix("hd")
        flow = f"{prefix}.x"
        run = MeasuredRun(cluster, flow)

        outputs = [f.copy() for f in flats]
        if workers == 1:
            return PendingCollective.completed(
                sim, run.finish(outputs, rounds=0), name=prefix
            )

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
        steps = p2.bit_length() - 1

        def send(channel, target, tag, data):
            channel.send(
                hosts[target], f"{prefix}.w{target}", tag, data,
                max(1, data.size * 4),
            )

        def worker_proc(rank: int):
            channel = channels[rank]
            local = outputs[rank]

            if rank >= p2:
                # Fold onto the partner, receive the final result.
                partner = rank - p2
                send(channel, partner, "fold", local)
                final = yield from channel.recv("final")
                local[:] = final
                return sim.now

            if rank < extras:
                piece = yield from channel.recv("fold")
                local += piece

            # Recursive halving reduce-scatter.  Track the index range
            # this rank is responsible for; halve it each round.
            lo, hi = 0, size
            for k in range(steps):
                partner = rank ^ (1 << k)
                mid = lo + (hi - lo) // 2
                # Lower-half owner keeps [lo, mid); sends [mid, hi).
                if rank < partner:
                    send(channel, partner, ("rs", k), local[mid:hi])
                    piece = yield from channel.recv(("rs", k))
                    local[lo:mid] += piece
                    hi = mid
                else:
                    send(channel, partner, ("rs", k), local[lo:mid])
                    piece = yield from channel.recv(("rs", k))
                    local[mid:hi] += piece
                    lo = mid
            # Recursive doubling allgather: undo the halving.  Partner
            # ranges are adjacent by construction; with odd splits the
            # two sides differ in length, so the received piece's own
            # size determines the new extent.
            for k in reversed(range(steps)):
                partner = rank ^ (1 << k)
                send(channel, partner, ("ag", k), local[lo:hi])
                piece = yield from channel.recv(("ag", k))
                if rank < partner:
                    local[hi : hi + piece.size] = piece
                    hi = hi + piece.size
                else:
                    local[lo - piece.size : lo] = piece
                    lo = lo - piece.size

            if rank < extras:
                send(channel, rank + p2, "final", local)
            return sim.now

        processes = [
            sim.spawn(worker_proc(rank), name=f"{prefix}-w{rank}")
            for rank in range(workers)
        ]

        def waits():
            yield sim.all_of(processes)

        return PendingCollective(
            sim, waits, lambda: run.finish(outputs, rounds=2 * steps), name=prefix
        )
