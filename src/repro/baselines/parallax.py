"""Parallax baseline (Kim et al. [34], §2.1 / §6.1.2).

Parallax is a hybrid: sparse variables go through a key-value parameter
server, dense variables through AllReduce, with a runtime profiler
choosing per variable.  The paper benchmarks it with an *ideal oracle*:
"for each tensor, we separately measure the sparse format performance
with the PS and the dense format performance with AllReduce, then
cherry-pick the better one".  :class:`ParallaxAllReduce` reproduces
exactly that methodology: both paths run, the faster result is
reported, and the details record both candidate times.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.collective import CollectiveResult
from ..core.pending import PendingCollective
from ..netsim.cluster import Cluster
from .ps import ParameterServerAllReduce
from .ring import RingAllReduce

__all__ = ["ParallaxAllReduce"]


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
