"""Driving a pending collective cooperatively matches the blocking call.

A synchronous collective is ``submit().wait()``; a pending one may also
be driven by running the simulator until its ``event`` fires.  Both
must give the same outputs, virtual finish time and packet counters,
for every registry algorithm; the structured tests cover the other
collectives and overlapping submissions.
"""

import numpy as np
import pytest

from repro.baselines import registry
from repro.netsim import Cluster, ClusterSpec
from repro.tensors import block_sparse_tensors

ALGORITHMS = sorted(registry.ALGORITHMS)
BLOCK = 64


def _cluster(workers, seed=0):
    return Cluster(
        ClusterSpec(workers=workers, aggregators=workers, bandwidth_gbps=10,
                    seed=seed)
    )


def _tensors(workers, elements, sparsity, seed):
    return block_sparse_tensors(
        workers, elements, BLOCK, sparsity, rng=np.random.default_rng(seed)
    )


def _run(algorithm, tensors, workers, seed, mode):
    collective = registry.get(algorithm)
    session = collective.prepare(_cluster(workers, seed))
    if mode == "sync":
        return session.allreduce(tensors)
    # Cooperative: start the control process and drive via the event.
    pending = session.submit(tensors)
    event = pending.event
    session.cluster.sim.run(until=event)
    return pending.result()


def _assert_identical(sync, other):
    assert len(sync.outputs) == len(other.outputs)
    for a, b in zip(sync.outputs, other.outputs):
        np.testing.assert_array_equal(a, b)
    assert sync.time_s == other.time_s
    assert sync.bytes_sent == other.bytes_sent
    assert sync.packets_sent == other.packets_sent
    assert sync.rounds == other.rounds


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_event_mode_matches_sync_result(algorithm):
    workers, seed = 3, 7
    tensors = _tensors(workers, 8 * BLOCK, 0.75, seed)
    sync = _run(algorithm, tensors, workers, seed, "sync")
    coop = _run(algorithm, tensors, workers, seed, "event")
    _assert_identical(sync, coop)


def test_submit_allgather_matches_sync():
    workers = 3
    rng = np.random.default_rng(3)
    tensors = [rng.standard_normal(32).astype(np.float32) for _ in range(workers)]
    collective = registry.get("ring")
    sync = collective.prepare(_cluster(workers)).allgather(tensors)
    submitted = collective.prepare(_cluster(workers)).submit_allgather(tensors).wait()
    for a, b in zip(sync.outputs, submitted.outputs):
        np.testing.assert_array_equal(a, b)
    assert sync.time_s == submitted.time_s


def test_submit_broadcast_matches_sync():
    workers = 4
    tensor = np.arange(64, dtype=np.float32)
    collective = registry.get("omnireduce")
    sync = collective.prepare(_cluster(workers)).broadcast(tensor, root=1)
    submitted = (
        collective.prepare(_cluster(workers)).submit_broadcast(tensor, root=1).wait()
    )
    for a, b in zip(sync.outputs, submitted.outputs):
        np.testing.assert_array_equal(a, b)
    assert sync.time_s == submitted.time_s


def test_pending_result_single_consumer():
    tensors = _tensors(2, 4 * BLOCK, 0.5, 0)
    session = registry.get("ring").prepare(_cluster(2))
    pending = session.submit(tensors)
    result = pending.wait()
    assert pending.done
    # A finished pending keeps answering.
    assert pending.result() is result
    assert pending.wait() is result


def test_two_submits_interleave_on_one_simulator():
    """Two pending collectives driven cooperatively finish in overlapped
    virtual time -- the enabler the multi-job service builds on."""
    workers = 2
    cluster = _cluster(workers)
    collective = registry.get("ring")
    session = collective.prepare(cluster)
    t_a = _tensors(workers, 4 * BLOCK, 0.0, 1)
    t_b = _tensors(workers, 4 * BLOCK, 0.0, 2)
    pending_a = session.submit(t_a)
    pending_b = session.submit(t_b)
    done = cluster.sim.all_of([pending_a.event, pending_b.event])
    cluster.sim.run(until=done)
    assert pending_a.done and pending_b.done
    expected = np.asarray(sum(np.asarray(t, dtype=np.float64) for t in t_a))
    np.testing.assert_allclose(
        np.asarray(pending_a.result().outputs[0], dtype=np.float64),
        expected,
        rtol=1e-5,
    )
