"""Seeded sparsity-pattern generators for the conformance matrix.

Four patterns cover the protocol's qualitatively different regimes:

* ``uniform`` -- the paper's microbenchmark shape: non-zero blocks
  placed independently and uniformly per worker (§6.4).
* ``clustered`` -- each worker's non-zero blocks form one contiguous
  run at a random offset (gradient bursts; stresses the look-ahead
  ``next`` chains rather than random skips).
* ``all-zero`` -- every contribution is entirely zero: the protocol
  must terminate having moved metadata only, and the result is zero.
* ``dense`` -- no zero block at all (the SwitchML* regime; streaming
  aggregation with nothing to skip).

A Table-1 workload name (:data:`repro.ddl.workloads.WORKLOADS`) is a
pattern too: ``uniform`` placement at the workload's per-worker block
sparsity, ``1 - comm_fraction`` (Table 1's last column is the
transmitted-block fraction at 256-element blocks).  The ablation
harness runs these; the conformance matrices iterate
:data:`SPARSITY_PATTERNS` only.

All generators are deterministic in ``seed``: the same (pattern,
workers, elements, block_size, dtype, seed) tuple reproduces the same
tensors bit for bit, which is what makes seed-replay work.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

import numpy as np

from ..ddl.workloads import WORKLOADS
from ..tensors import block_sparse_tensors
from ..tensors.blocks import num_blocks

__all__ = ["SPARSITY_PATTERNS", "make_tensors", "pattern_generator"]

#: Block sparsity used by the ``uniform`` and ``clustered`` patterns.
DEFAULT_SPARSITY = 0.8


def _uniform(
    workers, elements, block_size, rng, dtype, sparsity=DEFAULT_SPARSITY
) -> List[np.ndarray]:
    tensors = block_sparse_tensors(
        workers, elements, block_size, sparsity,
        overlap="random", rng=rng, dtype=np.float32,
    )
    return [t.astype(dtype) for t in tensors]


def _clustered(workers, elements, block_size, rng, dtype) -> List[np.ndarray]:
    blocks = num_blocks(elements, block_size)
    run = max(1, int(round(blocks * (1.0 - DEFAULT_SPARSITY))))
    tensors = []
    for _ in range(workers):
        tensor = np.zeros(elements, dtype=np.float32)
        start_block = int(rng.integers(0, max(1, blocks - run + 1)))
        lo = start_block * block_size
        hi = min(elements, (start_block + run) * block_size)
        values = rng.standard_normal(hi - lo).astype(np.float32)
        values[values == 0] = 1.0
        tensor[lo:hi] = values
        tensors.append(tensor.astype(dtype))
    return tensors


def _all_zero(workers, elements, block_size, rng, dtype) -> List[np.ndarray]:
    return [np.zeros(elements, dtype=dtype) for _ in range(workers)]


def _dense(workers, elements, block_size, rng, dtype) -> List[np.ndarray]:
    tensors = []
    for _ in range(workers):
        values = rng.standard_normal(elements).astype(np.float32)
        values[values == 0] = 1.0
        tensors.append(values.astype(dtype))
    return tensors


#: name -> generator(workers, elements, block_size, rng, dtype)
SPARSITY_PATTERNS: Dict[str, Callable] = {
    "uniform": _uniform,
    "clustered": _clustered,
    "all-zero": _all_zero,
    "dense": _dense,
}


def pattern_generator(pattern: str) -> Callable:
    """The generator behind ``pattern``: a :data:`SPARSITY_PATTERNS`
    entry, or ``uniform`` at a Table-1 workload's block sparsity."""
    if pattern in SPARSITY_PATTERNS:
        return SPARSITY_PATTERNS[pattern]
    if pattern in WORKLOADS:
        return partial(_uniform, sparsity=1.0 - WORKLOADS[pattern].comm_fraction)
    raise ValueError(
        f"unknown pattern {pattern!r}; choose from {sorted(SPARSITY_PATTERNS)} "
        f"or a Table-1 workload {sorted(WORKLOADS)}"
    )


def make_tensors(
    pattern: str,
    workers: int,
    elements: int,
    block_size: int,
    seed: int,
    dtype=np.float32,
) -> List[np.ndarray]:
    """Deterministically generate one conformance case's input tensors."""
    generate = pattern_generator(pattern)
    return generate(workers, elements, block_size, np.random.default_rng(seed), dtype)
