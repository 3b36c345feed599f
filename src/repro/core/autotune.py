"""Block-size auto-tuning.

§6.4 selects the 256-element default by measuring the trade-off between
block sparsity (small blocks skip more zeros) and efficiency (large
blocks amortize metadata and the bitmap kernel; Figure 15/16/20).  This
utility automates that choice for a *given* gradient structure: it
runs each candidate block size through the flow-mode engine
(:class:`~repro.core.flowreduce.FlowOmniReduce`) on the sample tensors
and keeps the fastest.  There is no separate cost model to drift from
the simulator: the ranking is the engine's own simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..netsim.cluster import Cluster, ClusterSpec
from ..netsim.flow import flow_view
from ..tensors.metrics import global_block_density
from .config import OmniReduceConfig
from .flowreduce import FlowOmniReduce

__all__ = ["AutotuneChoice", "autotune_block_size", "DEFAULT_CANDIDATES"]

DEFAULT_CANDIDATES = (32, 64, 128, 256, 512, 1024)


@dataclass
class AutotuneChoice:
    """Outcome of block-size auto-tuning."""

    block_size: int
    predicted_time_s: float
    predictions: Dict[int, float] = field(default_factory=dict)
    union_density: Dict[int, float] = field(default_factory=dict)


def autotune_block_size(
    tensors: Sequence[np.ndarray],
    candidates: Sequence[int] = DEFAULT_CANDIDATES,
    spec: Optional[ClusterSpec] = None,
) -> AutotuneChoice:
    """Pick the block size minimizing simulated OmniReduce time for the
    sparsity structure of ``tensors`` (one sample gradient per worker)
    on ``spec``, by default one aggregator per worker."""
    if not tensors:
        raise ValueError("need at least one sample tensor")
    if not candidates:
        raise ValueError("need at least one candidate block size")
    if spec is None:
        spec = ClusterSpec(workers=len(tensors), aggregators=len(tensors))

    predictions: Dict[int, float] = {}
    densities: Dict[int, float] = {}
    for block_size in candidates:
        engine = FlowOmniReduce(
            flow_view(Cluster(spec)), OmniReduceConfig(block_size=block_size)
        )
        predictions[block_size] = engine.allreduce(tensors).time_s
        densities[block_size] = global_block_density(tensors, block_size)

    best = min(predictions, key=predictions.get)
    return AutotuneChoice(
        block_size=best,
        predicted_time_s=predictions[best],
        predictions=predictions,
        union_density=densities,
    )
