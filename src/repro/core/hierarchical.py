"""Two-layer hierarchical aggregation for multi-GPU servers (§5, §6.3).

When each worker machine hosts ``g`` GPUs, OmniReduce first reduces
across the GPUs of a server over NVLink (the paper uses NCCL for this
layer), then runs the inter-server collective on the per-server sums,
and finally broadcasts the result back to the local GPUs.

The intra-server phases are charged with an NVLink ring cost model
(``(g-1)/g * S / B_nvlink`` each way); the inter-server phase is the
full packet-level simulation.  The key emergent effect: summing ``g``
GPUs' gradients takes the *union* of their non-zero blocks, so the
inter-server tensors are denser than any single GPU's gradient -- which
is why the paper's multi-GPU speedups (Figure 14) are smaller than the
single-GPU ones (Figure 10).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..netsim.cluster import Cluster
from .collective import CollectiveResult, OmniReduce
from .config import OmniReduceConfig
from .messages import VALUE_BYTES
from .pending import PendingCollective, PendingResult

__all__ = ["HierarchicalAllReduce", "NVLINK_GBPS"]

#: Effective NVLink all-reduce bandwidth within a server (NVLink 2.0,
#: 8xV100 DGX-class boxes).
NVLINK_GBPS = 1200.0


class HierarchicalAllReduce:
    """Intra-server NVLink reduction + inter-server collective + broadcast.

    ``inner`` is any engine with a ``begin(tensors) -> PendingCollective``
    method operating across the servers (OmniReduce by default, but a
    baseline like :class:`~repro.baselines.ring.RingAllReduce` drops in
    for the NCCL comparison of Figure 13/14).
    """

    def __init__(
        self,
        cluster: Cluster,
        gpus_per_server: int = 8,
        nvlink_gbps: float = NVLINK_GBPS,
        inner=None,
        config: Optional[OmniReduceConfig] = None,
    ) -> None:
        if gpus_per_server < 1:
            raise ValueError("gpus_per_server must be >= 1")
        if nvlink_gbps <= 0:
            raise ValueError("nvlink_gbps must be positive")
        self.cluster = cluster
        self.gpus_per_server = gpus_per_server
        self.nvlink_gbps = nvlink_gbps
        self.inner = inner if inner is not None else OmniReduce(cluster, config)

    def _intra_phase_time_s(self, nbytes: int) -> float:
        """One intra-server ring phase (reduce or broadcast)."""
        g = self.gpus_per_server
        if g == 1:
            return 0.0
        return (g - 1) / g * nbytes * 8.0 / (self.nvlink_gbps * 1e9)

    def allreduce(
        self, per_gpu_tensors: Sequence[Sequence[np.ndarray]]
    ) -> CollectiveResult:
        """Reduce across all GPUs of all servers.

        ``per_gpu_tensors[s][g]`` is the gradient of GPU ``g`` on server
        ``s``; there must be one server per cluster worker host.

        When the cluster carries an attached telemetry, the whole
        hierarchical operation records as one run through the same
        uniform path as every registry algorithm (one
        ``hierarchical``-labeled sample of ``goodput_gbps``,
        ``zero_blocks_suppressed``, ``worker_stall_s``, ...); the inner
        collective's ``begin`` records nothing of its own.
        """
        return PendingResult(
            getattr(self.cluster, "telemetry", None),
            "hierarchical",
            self.cluster,
            lambda: self.begin(per_gpu_tensors),
        ).wait()

    def begin(
        self, per_gpu_tensors: Sequence[Sequence[np.ndarray]]
    ) -> PendingCollective:
        """Non-blocking :meth:`allreduce` (records nothing)."""
        servers = self.cluster.spec.workers
        if len(per_gpu_tensors) != servers:
            raise ValueError(f"expected {servers} servers, got {len(per_gpu_tensors)}")
        for s, gpus in enumerate(per_gpu_tensors):
            if len(gpus) != self.gpus_per_server:
                raise ValueError(
                    f"server {s} has {len(gpus)} GPUs, expected {self.gpus_per_server}"
                )

        # Layer 1: intra-server reduction (the union densifies blocks).
        server_sums = [
            np.sum(np.stack([np.asarray(t, dtype=np.float32) for t in gpus]), axis=0)
            for gpus in per_gpu_tensors
        ]
        intra = self._intra_phase_time_s(server_sums[0].size * VALUE_BYTES)

        # Layer 3: intra-server broadcast of the global result.
        def add_intra(result: CollectiveResult) -> CollectiveResult:
            result.time_s += 2 * intra
            result.details["intra_reduce_s"] = intra
            result.details["intra_broadcast_s"] = intra
            result.details["gpus_per_server"] = self.gpus_per_server
            return result

        # Layer 2: inter-server collective (simulated).
        return self.inner.begin(server_sums).map(add_intra)
