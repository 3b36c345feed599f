"""Baseline collectives the paper compares against (§2.1, §6.1).

All baselines run on the same simulated cluster and return the same
:class:`~repro.core.collective.CollectiveResult` as OmniReduce, so every
comparison in the benchmark harness is apples to apples.
"""

from .agsparse import AGsparseAllReduce
from .api import (
    AGsparseOptions,
    Collective,
    OmniReduceOptions,
    Options,
    ParallaxOptions,
    PSOptions,
    RackHierarchicalOptions,
    RingOptions,
    Session,
    SparCMLOptions,
    SwitchMLOptions,
)
from .collectives import ring_allgather, tree_broadcast
from .halving_doubling import HalvingDoublingAllReduce
from .parallax import ParallaxAllReduce, ParallaxRuntime
from .ps import ParameterServerAllReduce
from .registry import ALGORITHMS, get, prepare
from .ring import RingAllReduce
from .sparcml import SparCML
from .switchml import SwitchMLAllReduce

__all__ = [
    "Collective",
    "Session",
    "Options",
    "OmniReduceOptions",
    "RingOptions",
    "AGsparseOptions",
    "SparCMLOptions",
    "PSOptions",
    "ParallaxOptions",
    "SwitchMLOptions",
    "RackHierarchicalOptions",
    "get",
    "prepare",
    "RingAllReduce",
    "AGsparseAllReduce",
    "SparCML",
    "ParameterServerAllReduce",
    "ParallaxAllReduce",
    "ParallaxRuntime",
    "SwitchMLAllReduce",
    "ALGORITHMS",
    "ring_allgather",
    "tree_broadcast",
    "HalvingDoublingAllReduce",
]
