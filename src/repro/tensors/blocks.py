"""Block decomposition of dense tensors.

OmniReduce's unit of transmission is the *block*: ``block_size``
contiguous elements of the flattened input tensor (§3).  A block is
non-zero when at least one of its elements is non-zero.  This module
provides the block view used by workers: the non-zero bitmap, the
"next non-zero block" scan that drives the protocol's look-ahead
metadata, and block-level slicing.

The tail block of a tensor whose length is not a multiple of the block
size is handled by zero-padding semantics: slicing past the end returns
a zero-padded block, and stores back only the in-range prefix.  The
paper assumes a multiple for ease of description; real gradients are
not, so the implementation must not.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np

__all__ = ["BlockView", "num_blocks", "block_nonzero_bitmap", "INFINITY", "NEG_INFINITY"]

#: Sentinel meaning "no further non-zero block" (the paper's infinity).
#: Chosen to compare greater than any real block index so that the
#: aggregator's ``min(next)`` logic works unchanged.
INFINITY = 1 << 62
#: Sentinel for the aggregator's initial per-worker state (the paper's
#: minus-infinity): compares smaller than any real block index.
NEG_INFINITY = -(1 << 62)


def num_blocks(length: int, block_size: int) -> int:
    """Number of blocks covering a tensor of ``length`` elements."""
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return math.ceil(length / block_size) if length else 0


def block_nonzero_bitmap(tensor: np.ndarray, block_size: int) -> np.ndarray:
    """Boolean array: ``bitmap[b]`` is True iff block ``b`` is non-zero.

    This is the simulation-side equivalent of the paper's GPU bitmap
    kernel (Appendix B.1); its *cost model* lives in
    :mod:`repro.tensors.bitmap`.
    """
    flat = np.ascontiguousarray(tensor).reshape(-1)
    blocks = num_blocks(flat.size, block_size)
    if blocks == 0:
        return np.zeros(0, dtype=bool)
    full = (flat.size // block_size) * block_size
    bitmap = np.zeros(blocks, dtype=bool)
    if full:
        bitmap[: full // block_size] = (
            flat[:full].reshape(-1, block_size).any(axis=1)
        )
    if full != flat.size:
        bitmap[-1] = bool(flat[full:].any())
    return bitmap


class BlockView:
    """A dense tensor viewed as fixed-size blocks.

    The view keeps a reference to the flattened tensor; writes through
    :meth:`set_block` mutate the underlying array.  The non-zero bitmap
    is computed once at construction (matching the paper, where the
    bitmap is computed when a gradient becomes ready) and updated only
    through :meth:`refresh_bitmap`.
    """

    def __init__(self, tensor: np.ndarray, block_size: int) -> None:
        if block_size < 1:
            raise ValueError(f"block size must be >= 1, got {block_size}")
        self.flat = np.ascontiguousarray(tensor).reshape(-1)
        self.block_size = block_size
        self._block_shape = (block_size,)
        self.blocks = num_blocks(self.flat.size, block_size)
        self.bitmap = block_nonzero_bitmap(self.flat, block_size)
        self._nonzero_indices: Optional[np.ndarray] = None
        self._nonzero_list: Optional[List[int]] = None
        self._bitmap_list: Optional[List[bool]] = None
        self._stride_groups: Dict[int, List[List[int]]] = {}

    def __len__(self) -> int:
        return self.blocks

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    @property
    def nonzero_indices(self) -> np.ndarray:
        """Sorted indices of non-zero blocks (cached)."""
        if self._nonzero_indices is None:
            self._nonzero_indices = np.flatnonzero(self.bitmap)
        return self._nonzero_indices

    @property
    def _nonzero(self) -> List[int]:
        """Plain-list mirror of :attr:`nonzero_indices` for bisect scans."""
        if self._nonzero_list is None:
            self._nonzero_list = self.nonzero_indices.tolist()
        return self._nonzero_list

    @property
    def _bitmap_bools(self) -> List[bool]:
        """Plain-list mirror of the bitmap for per-block probing."""
        if self._bitmap_list is None:
            self._bitmap_list = self.bitmap.tolist()
        return self._bitmap_list

    @property
    def nonzero_count(self) -> int:
        return int(self.nonzero_indices.size)

    @property
    def block_sparsity(self) -> float:
        """Fraction of all-zero blocks (the paper's "block sparsity")."""
        if self.blocks == 0:
            return 0.0
        return 1.0 - self.nonzero_count / self.blocks

    def refresh_bitmap(self) -> None:
        """Recompute the bitmap after external mutation of the tensor."""
        self.bitmap = block_nonzero_bitmap(self.flat, self.block_size)
        self._nonzero_indices = None
        self._nonzero_list = None
        self._bitmap_list = None
        self._stride_groups.clear()

    def stride_column(self, stride: int, residue: int) -> List[int]:
        """Sorted non-zero block indices congruent to ``residue`` mod
        ``stride``.

        All ``stride`` residue classes are built in one pass over the
        non-zero list and cached, so the per-stream layout construction
        (every stream of a plan shares one stride) costs O(nnz) total
        per view instead of O(streams * nnz).  Callers must not mutate
        the returned list.
        """
        groups = self._stride_groups.get(stride)
        if groups is None:
            groups = [[] for _ in range(stride)]
            for block in self._nonzero:
                groups[block % stride].append(block)
            self._stride_groups[stride] = groups
        return groups[residue]

    def get_block(self, block: int) -> np.ndarray:
        """Return block ``block``, zero-padded to ``block_size``."""
        if not 0 <= block < self.blocks:
            raise IndexError(f"block {block} out of range [0, {self.blocks})")
        start = block * self.block_size
        end = start + self.block_size
        if end <= self.flat.size:
            return self.flat[start:end].copy()
        padded = np.zeros(self.block_size, dtype=self.flat.dtype)
        padded[: self.flat.size - start] = self.flat[start:]
        return padded

    def set_block(self, block: int, data: np.ndarray) -> None:
        """Store ``data`` (length ``block_size``) into block ``block``."""
        if not 0 <= block < self.blocks:
            raise IndexError(f"block {block} out of range [0, {self.blocks})")
        if data.shape != self._block_shape:
            raise ValueError(
                f"expected block of shape ({self.block_size},), got {data.shape}"
            )
        start = block * self.block_size
        end = min(start + self.block_size, self.flat.size)
        self.flat[start:end] = data[: end - start]

    def next_nonzero_after(self, block: int) -> int:
        """Smallest non-zero block index strictly greater than ``block``.

        Returns :data:`INFINITY` when none exists.  ``block`` may be -1 to
        find the first non-zero block.  This is the worker-side scan that
        produces the protocol's ``next`` metadata.
        """
        indices = self._nonzero
        pos = bisect_right(indices, block)
        if pos >= len(indices):
            return INFINITY
        return indices[pos]

    def next_nonzero_in_column(self, block: int, stride: int) -> int:
        """Next non-zero block at ``block + k*stride`` for ``k >= 1``.

        Used by Block Fusion (§3.2): the tensor is viewed as a matrix of
        blocks with ``stride`` columns; the next offset for a column is
        found by scanning down that column only.  Returns
        :data:`INFINITY` when the column holds no further non-zero block.
        """
        bitmap = self._bitmap_bools
        candidate = block + stride
        while candidate < self.blocks:
            if bitmap[candidate]:
                return candidate
            candidate += stride
        return INFINITY
