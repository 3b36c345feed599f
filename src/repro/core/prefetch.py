"""GPU <-> host memory movement model (Appendix B).

Without GPU-direct RDMA, every block a worker sends must first cross
PCIe into host memory, and every aggregated block received must cross
back.  The paper's *chunk prefetch* copies the whole tensor GPU->host in
4 MB chunks asynchronously as soon as the gradient is ready, so the
upward copy overlaps communication almost completely -- except when the
network drains faster than PCIe fills (sparse tensors on a 100 Gbps
link), which is exactly the regime where the paper observes RDMA
flat-lining above 90% sparsity while GDR keeps improving.

:class:`PrefetchSchedule` answers "when is byte offset X resident in
host memory"; :class:`CopyEngine` is a serialized rate-limited stage for
the downward (host->GPU) copies.  GDR configurations simply do not
instantiate them.

:func:`block_gates` folds both gates -- bytes host-resident, gradient
produced -- into one per-block send time for every worker: the one
answer to "when may this block go on the wire" that the packet worker
and the flow engine both read.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "PrefetchSchedule",
    "CopyEngine",
    "LinearReadiness",
    "block_gates",
    "DEFAULT_CHUNK_BYTES",
]

#: The paper's chunk size for cudaMemcpyAsync prefetch (Appendix B).
DEFAULT_CHUNK_BYTES = 4 * 1024 * 1024


class PrefetchSchedule:
    """Availability times for a chunked asynchronous GPU->host copy.

    Chunks are issued back to back starting at ``start_s``; chunk ``i``
    (covering bytes ``[i*chunk, (i+1)*chunk)``) completes at
    ``start_s + (i+1) * chunk_time``.
    """

    def __init__(
        self,
        total_bytes: int,
        rate_bps: float,
        start_s: float = 0.0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        if total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if rate_bps <= 0:
            raise ValueError("copy rate must be positive")
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        self.total_bytes = total_bytes
        self.rate_bps = rate_bps
        self.start_s = start_s
        self.chunk_bytes = chunk_bytes
        self._chunk_time = chunk_bytes * 8.0 / rate_bps

    @property
    def num_chunks(self) -> int:
        return math.ceil(self.total_bytes / self.chunk_bytes) if self.total_bytes else 0

    @property
    def finish_s(self) -> float:
        """Completion time of the final chunk."""
        if self.total_bytes == 0:
            return self.start_s
        last_chunk_bytes = self.total_bytes - (self.num_chunks - 1) * self.chunk_bytes
        return (
            self.start_s
            + (self.num_chunks - 1) * self._chunk_time
            + last_chunk_bytes * 8.0 / self.rate_bps
        )

    def available_at(self, end_offset: int) -> float:
        """Time at which bytes ``[0, end_offset)`` are host-resident."""
        if end_offset <= 0:
            return self.start_s
        if end_offset > self.total_bytes:
            raise ValueError(
                f"offset {end_offset} beyond tensor of {self.total_bytes} bytes"
            )
        chunk = (end_offset - 1) // self.chunk_bytes
        if chunk == self.num_chunks - 1:
            return self.finish_s
        return self.start_s + (chunk + 1) * self._chunk_time


class LinearReadiness:
    """When does the *gradient itself* exist? (compute/comm overlap, §5.)

    PyTorch DDP hands OmniReduce gradient buckets as the backward pass
    produces them -- back to front: the last layer's gradient is ready
    first.  :class:`LinearReadiness` models that: gradient bytes become
    ready at a constant rate over ``duration_s``, starting from the
    tensor's tail (``reverse=True``, the backward order) or head.

    ``available_at(end_offset)`` answers when bytes ``[0, end_offset)``
    are all ready, mirroring :class:`PrefetchSchedule`'s interface so
    :func:`block_gates` can take the max of the two gates (gradient
    produced, then copied to host).
    """

    def __init__(
        self,
        total_bytes: int,
        duration_s: float,
        start_s: float = 0.0,
        reverse: bool = True,
    ) -> None:
        if total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        self.total_bytes = total_bytes
        self.duration_s = duration_s
        self.start_s = start_s
        self.reverse = reverse

    @property
    def finish_s(self) -> float:
        return self.start_s + self.duration_s

    def available_at(self, end_offset: int) -> float:
        if end_offset <= 0:
            return self.start_s
        if end_offset > self.total_bytes:
            raise ValueError(
                f"offset {end_offset} beyond tensor of {self.total_bytes} bytes"
            )
        if self.total_bytes == 0 or self.duration_s == 0:
            return self.start_s
        if self.reverse:
            # Byte b is produced at start + (1 - b/total) * duration; the
            # block ending at end_offset is gated at its last byte, not
            # its first (produced last), so early by one block's time.
            fraction = 1.0 - (end_offset - 1) / self.total_bytes
        else:
            fraction = end_offset / self.total_bytes
        return self.start_s + fraction * self.duration_s


def block_gates(
    prefetches: Optional[Sequence[PrefetchSchedule]],
    readiness: Optional[Sequence],
    starts: Sequence[float],
    num_blocks: int,
    block_bytes: int,
) -> Optional[np.ndarray]:
    """Each block's earliest send time at each worker, ``[block, worker]``.

    A block may leave worker ``w`` once bytes ``[0, end)`` -- ``end`` the
    block's end offset -- are host-resident (``prefetches[w]``: one
    operation's schedules, sharing tensor and chunk size; ``None`` with
    GPU-direct RDMA) and its gradient exists (``readiness[w]``, times
    relative to the worker's start ``starts[w]``).  Returns ``None`` when
    neither gate applies.

    Prefetch is evaluated once per chunk and broadcast to the chunk's
    blocks: :meth:`PrefetchSchedule.available_at` depends only on the
    chunk index, so every value is the very float a per-block call would
    return.  It rises with the offset, so the max over any block set is
    the value at the set's deepest block.
    """
    if prefetches is None and readiness is None:
        return None
    ends = np.arange(1, num_blocks + 1, dtype=np.int64) * block_bytes
    gates = np.full((num_blocks, len(starts)), -np.inf)
    if prefetches is not None:
        chunk_bytes = prefetches[0].chunk_bytes
        total = prefetches[0].total_bytes
        per_chunk = np.array([
            [p.available_at(min((chunk + 1) * chunk_bytes, total)) for p in prefetches]
            for chunk in range(prefetches[0].num_chunks)
        ])
        gates = per_chunk[(np.minimum(ends, total) - 1) // chunk_bytes]
    if readiness is not None:
        for worker, schedule in enumerate(readiness):
            total = getattr(schedule, "total_bytes", None)
            ready = np.array([
                schedule.available_at(end if total is None else min(end, total))
                + starts[worker]
                for end in ends.tolist()
            ])
            gates[:, worker] = np.maximum(gates[:, worker], ready)
    return gates


class CopyEngine:
    """A serialized copy stage (host->GPU write-back path).

    ``reserve(nbytes, now)`` books a copy and returns its completion
    time; bookings queue behind each other at the engine's rate.
    """

    def __init__(self, rate_bps: float, per_op_overhead_s: float = 0.0) -> None:
        if rate_bps <= 0:
            raise ValueError("copy rate must be positive")
        if per_op_overhead_s < 0:
            raise ValueError("per-op overhead must be non-negative")
        self.rate_bps = rate_bps
        self.per_op_overhead_s = per_op_overhead_s
        self.free_at = 0.0
        self.bytes_copied = 0
        self.operations = 0

    def reserve(self, nbytes: int, now: float) -> float:
        """Book a copy of ``nbytes`` starting no earlier than ``now``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        start = max(now, self.free_at)
        self.free_at = start + self.per_op_overhead_s + nbytes * 8.0 / self.rate_bps
        self.bytes_copied += nbytes
        self.operations += 1
        return self.free_at
