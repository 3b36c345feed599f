"""SwitchML* baseline (§6.1.1, §6.2.2).

SwitchML [58] performs streaming aggregation exactly like OmniReduce's
slot pipeline but has no notion of sparsity: every block is transmitted.
The paper evaluates a server-based variant (SwitchML*) to isolate the
contribution of streaming aggregation from that of zero-block skipping.

Here SwitchML* is precisely OmniReduce with the
``zero_block_suppression`` feature off -- the same protocol engine
streaming the dense tensor -- which makes the ablation exact by
construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.collective import CollectiveResult, OmniReduce
from ..core.config import OmniReduceConfig
from ..core.flowreduce import FlowOmniReduce
from ..core.pending import PendingCollective
from ..netsim.cluster import Cluster
from ..netsim.flow import is_flow_view

__all__ = ["SwitchMLAllReduce"]


class SwitchMLAllReduce:
    """Dense streaming aggregation (OmniReduce minus sparsity skipping)."""

    def __init__(self, cluster: Cluster, config: Optional[OmniReduceConfig] = None):
        base = config or OmniReduceConfig()
        # A flow-mode view selects the flow-mode engine (same protocol,
        # analytical timeline) -- dense streams get the speedup too.
        engine_cls = FlowOmniReduce if is_flow_view(cluster) else OmniReduce
        self._omni = engine_cls(
            cluster,
            base.with_(
                features=base.features.with_(zero_block_suppression=False),
                charge_bitmap=False,
            ),
        )
        # The shared engine records runs under this baseline's name.
        self._omni.telemetry_label = "switchml"
        #: The feature set the engine actually runs (what sessions stamp).
        self.features = self._omni.config.features

    @staticmethod
    def _stamp(result: CollectiveResult) -> CollectiveResult:
        result.details["algorithm"] = "switchml*"
        return result

    def allreduce(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        return self._stamp(self._omni.allreduce(tensors))

    def begin(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        """Non-blocking :meth:`allreduce` (records nothing)."""
        return self._omni.begin(tensors).map(self._stamp)
