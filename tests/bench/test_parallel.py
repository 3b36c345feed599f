"""Parallel sweep runner (REPRO_JOBS) and the tensor memo.

``parallel_map`` must give bit-identical results at any job count --
every data point owns its simulator and RNG.  The worker function
lives at module level because the spawn context pickles it by
reference.
"""

import numpy as np
import pytest

from repro.bench import harness
from repro.bench.harness import cached_tensors, job_count, parallel_map
from repro.netsim import Simulator


def _simulate_point(n):
    """Picklable per-point work: run a tiny simulation, return its sum."""
    sim = Simulator()
    out = []
    for i in range(n):
        sim.call_after(float(i), out.append, i)
    sim.run()
    return sum(out)


def test_job_count_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert job_count() == 1
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert job_count() == 4
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError):
        job_count()


def test_parallel_map_sequential_default(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    items = [3, 1, 4, 1, 5]
    assert parallel_map(_simulate_point, items) == [_simulate_point(i) for i in items]


def test_parallel_map_empty(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    assert parallel_map(_simulate_point, []) == []


def test_parallel_map_spawn_matches_sequential(monkeypatch):
    """REPRO_JOBS=2 gives the same results, in order, as sequential."""
    items = [5, 3, 8, 2]
    expected = [_simulate_point(i) for i in items]

    monkeypatch.setenv("REPRO_JOBS", "2")
    assert parallel_map(_simulate_point, items) == expected


def test_cached_tensors_memoizes_and_protects():
    harness._TENSOR_CACHE.clear()
    first = cached_tensors(2, 2048, 0.9, seed=3)
    second = cached_tensors(2, 2048, 0.9, seed=3)
    # Same underlying arrays handed out on a hit (fresh list wrapper).
    assert all(a is b for a, b in zip(first, second))
    assert first is not second
    # Cached inputs are read-only: accidental in-place mutation by a
    # collective raises instead of corrupting sibling algorithms.
    assert not first[0].flags.writeable
    with pytest.raises(ValueError):
        first[0][0] = 1.0
    # Different key -> different tensors.
    other = cached_tensors(2, 2048, 0.9, seed=4)
    assert not np.array_equal(first[0], other[0])


def test_cached_tensors_matches_direct_generation():
    harness._TENSOR_CACHE.clear()
    from repro.tensors import block_sparse_tensors

    cached = cached_tensors(2, 2048, 0.5, seed=9, overlap="all", block_size=256)
    direct = block_sparse_tensors(
        2, 2048, 256, 0.5, overlap="all", rng=np.random.default_rng(9)
    )
    assert all(np.array_equal(c, d) for c, d in zip(cached, direct))


def test_cached_tensors_evicts_oldest():
    harness._TENSOR_CACHE.clear()
    keep = cached_tensors(1, 512, 0.5, seed=0)
    for seed in range(1, harness._TENSOR_CACHE_ENTRIES):
        cached_tensors(1, 512, 0.5, seed=seed)
    # Re-touch the oldest entry, then overflow the cache by one.
    assert cached_tensors(1, 512, 0.5, seed=0)[0] is keep[0]
    cached_tensors(1, 512, 0.5, seed=harness._TENSOR_CACHE_ENTRIES)
    assert len(harness._TENSOR_CACHE) == harness._TENSOR_CACHE_ENTRIES
    # seed=0 survived because it was most-recently used; seed=1 did not.
    assert cached_tensors(1, 512, 0.5, seed=0)[0] is keep[0]
    keys = list(harness._TENSOR_CACHE)
    assert not any(key[3] == 1 for key in keys)
