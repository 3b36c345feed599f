"""Parallax baseline (Kim et al. [34], §2.1 / §6.1.2).

Parallax is a hybrid: sparse variables go through a key-value parameter
server, dense variables through AllReduce, with a runtime profiler
choosing per variable.  The paper benchmarks it with an *ideal oracle*:
"for each tensor, we separately measure the sparse format performance
with the PS and the dense format performance with AllReduce, then
cherry-pick the better one".  :class:`ParallaxAllReduce` reproduces
exactly that methodology: both paths run, the faster result is
reported, and the details record both candidate times.

:class:`ParallaxRuntime` additionally implements what the real system
does -- a runtime sparsity monitor: the first ``warmup`` reductions run
over AllReduce while gradient density is sampled, then a
latency-bandwidth cost model commits to one path for the rest of
training (the "requires runtime profiling" property §2.1 contrasts
OmniReduce against).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.collective import CollectiveResult
from ..core.pending import PendingCollective
from ..netsim.cluster import Cluster
from .ps import ParameterServerAllReduce
from .ring import RingAllReduce

__all__ = ["ParallaxAllReduce", "ParallaxRuntime"]


class ParallaxAllReduce:
    """Oracle cherry-pick between sparse PS and dense ring AllReduce."""

    def __init__(self, cluster: Cluster, include_conversion: bool = True) -> None:
        self.cluster = cluster
        self.include_conversion = include_conversion

    def allreduce(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        return self.begin(tensors).wait()

    def begin(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        """Run both candidate paths back to back; pending yields the winner.

        The two sub-collectives chain through :meth:`PendingCollective.steps`,
        so the oracle's measure-both methodology needs no extra control
        process of its own.
        """
        sim = self.cluster.sim
        candidates = {}

        def waits():
            dense_pending = RingAllReduce(self.cluster).begin(tensors)
            candidates["dense"] = yield from dense_pending.steps()
            sparse_pending = ParameterServerAllReduce(
                self.cluster, sparse=True, include_conversion=self.include_conversion
            ).begin(tensors)
            candidates["sparse"] = yield from sparse_pending.steps()

        def finalize():
            dense = candidates["dense"]
            sparse = candidates["sparse"]
            winner, loser, choice = (
                (dense, sparse, "allreduce")
                if dense.time_s <= sparse.time_s
                else (sparse, dense, "sparse-ps")
            )
            winner.details["parallax_choice"] = choice
            winner.details["candidate_allreduce_s"] = dense.time_s
            winner.details["candidate_sparse_ps_s"] = sparse.time_s
            return winner

        return PendingCollective(sim, waits, finalize, name="parallax")


class ParallaxRuntime:
    """Parallax with its actual runtime sparsity monitor.

    The first ``warmup`` calls run dense AllReduce while the monitor
    samples gradient density; afterwards a latency-bandwidth cost model
    commits to sparse-PS or AllReduce:

        T_ps   ~ (D + min(1, N * D)) * S / B     (push nnz, pull union)
        T_ring ~ 2 (N-1) / N * S / B

    so the PS wins when ``D + min(1, N D) < 2 (N-1) / N``.  The commit is
    sticky -- exactly the "prior knowledge / runtime profiling"
    requirement OmniReduce avoids.
    """

    def __init__(self, cluster: Cluster, warmup: int = 2) -> None:
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.cluster = cluster
        self.warmup = warmup
        self._densities: List[float] = []
        self._choice: Optional[str] = None

    @property
    def choice(self) -> Optional[str]:
        """Committed path, or None while still profiling."""
        return self._choice

    def _observe(self, tensors: Sequence[np.ndarray]) -> None:
        flats = [np.ascontiguousarray(t).reshape(-1) for t in tensors]
        density = float(
            np.mean([np.count_nonzero(f) / max(1, f.size) for f in flats])
        )
        self._densities.append(density)

    def _commit(self) -> str:
        workers = self.cluster.spec.workers
        density = float(np.mean(self._densities))
        ps_cost = density + min(1.0, workers * density)
        ring_cost = 2 * (workers - 1) / workers
        return "sparse-ps" if ps_cost < ring_cost else "allreduce"

    def allreduce(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        if self._choice is None:
            self._observe(tensors)
            if len(self._densities) >= self.warmup:
                self._choice = self._commit()
            else:
                result = RingAllReduce(self.cluster).allreduce(tensors)
                result.details["parallax_phase"] = "profiling"
                return result
        if self._choice == "sparse-ps":
            result = ParameterServerAllReduce(self.cluster, sparse=True).allreduce(
                tensors
            )
        else:
            result = RingAllReduce(self.cluster).allreduce(tensors)
        result.details["parallax_phase"] = "committed"
        result.details["parallax_choice"] = self._choice
        return result
