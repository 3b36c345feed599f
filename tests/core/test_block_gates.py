"""The shared send gate: :func:`~repro.core.prefetch.block_gates`.

Both OmniReduce engines read one ``(blocks x workers)`` array for when a
block may leave a worker -- its bytes host-resident (chunk prefetch,
App. B) and its gradient produced (readiness, §5).  The property pins
every entry to the per-block formula the packet worker used to evaluate
on the fly; the packet-vs-flow cases run tensors spanning several 4 MiB
prefetch chunks, which the differential matrix's small tensors never
reach.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collective import OmniReduce
from repro.core.config import OmniReduceConfig
from repro.core.features import ProtocolFeatures
from repro.core.flowreduce import TIME_RTOL, FlowOmniReduce
from repro.core.messages import VALUE_BYTES
from repro.core.prefetch import (
    DEFAULT_CHUNK_BYTES,
    LinearReadiness,
    PrefetchSchedule,
    block_gates,
)
from repro.netsim import Cluster, ClusterSpec
from repro.netsim.flow import flow_view
from repro.tensors import block_sparse_tensors

pytestmark = pytest.mark.flowmode


@given(
    elements=st.integers(min_value=1, max_value=3000),
    block_size=st.sampled_from([1, 7, 64, 256]),
    chunk_bytes=st.one_of(st.none(), st.integers(min_value=1, max_value=4096)),
    workers=st.integers(min_value=1, max_value=3),
    gdr=st.booleans(),
    readiness=st.sampled_from([None, "forward", "reverse"]),
    duration=st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e-4, allow_nan=False),
        min_size=3,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_gates_match_per_block_formula(
    elements, block_size, chunk_bytes, workers, gdr, readiness, duration, delays
):
    """Entry ``[b, w]`` is the max of worker ``w``'s prefetch time and
    shifted readiness time at block ``b``'s (clamped) end offset.
    ``chunk_bytes=None`` is chunk prefetch ablated: one tensor-sized
    chunk."""
    total = elements * VALUE_BYTES
    blocks = -(-elements // block_size)
    block_bytes = block_size * VALUE_BYTES
    starts = [1e-3 + delays[w] for w in range(workers)]
    prefetches = None if gdr else [
        PrefetchSchedule(
            total, 96e9, start_s=starts[w], chunk_bytes=chunk_bytes or total
        )
        for w in range(workers)
    ]
    schedules = (
        None
        if readiness is None
        else [
            LinearReadiness(total, duration, reverse=readiness == "reverse")
            for _ in range(workers)
        ]
    )
    gates = block_gates(prefetches, schedules, starts, blocks, block_bytes)
    if gdr and readiness is None:
        assert gates is None
        return
    assert gates.shape == (blocks, workers)
    for w in range(workers):
        for b in range(blocks):
            end = min((b + 1) * block_bytes, total)
            expected = -np.inf
            if not gdr:
                expected = prefetches[w].available_at(end)
            if schedules is not None:
                expected = max(expected, schedules[w].available_at(end) + starts[w])
            assert gates[b, w] == expected


def test_plan_run_gates_follow_the_cluster():
    """GDR without readiness has no gate; chunk prefetch ablated gates
    every block on the whole tensor's copy."""
    elements = 4096
    gdr = OmniReduce(Cluster(ClusterSpec(workers=2, aggregators=2, gdr=True)))
    assert gdr._plan_run(gdr.cluster, elements, None)[4] is None

    whole = OmniReduce(
        Cluster(ClusterSpec(workers=2, aggregators=2)),
        OmniReduceConfig(features=ProtocolFeatures(chunk_prefetch=False)),
    )
    _, _, _, _, gates, _, _ = whole._plan_run(whole.cluster, elements, None)
    assert (gates == gates[-1]).all()

    readiness = [LinearReadiness(elements * VALUE_BYTES, 1e-3)] * 2
    _, _, _, _, gates, _, _ = gdr._plan_run(gdr.cluster, elements, None, readiness)
    # Backward order: the tail block's gradient is ready first.
    assert (np.diff(gates, axis=0) <= 0).all() and gates[0, 0] > gates[-1, 0]


def _multi_chunk_pair(workers, elements, sparsity, deterministic):
    tensors = block_sparse_tensors(
        workers, elements, 256, sparsity, rng=np.random.default_rng(1)
    )
    assert tensors[0].nbytes > DEFAULT_CHUNK_BYTES  # at least two chunks
    results = []
    for engine_cls, wrap in ((OmniReduce, None), (FlowOmniReduce, flow_view)):
        cluster = Cluster(ClusterSpec(workers=workers, aggregators=workers))
        engine = engine_cls(
            wrap(cluster) if wrap else cluster,
            OmniReduceConfig(deterministic=deterministic),
        )
        results.append(engine.allreduce([t.copy() for t in tensors]))
    return results


def _assert_equivalent(packet, flow):
    for p_out, f_out in zip(packet.outputs, flow.outputs):
        assert np.array_equal(p_out, f_out)
    for name in ("bytes_sent", "packets_sent", "upward_bytes",
                 "downward_bytes", "rounds"):
        assert getattr(flow, name) == getattr(packet, name), name
    assert flow.time_s == pytest.approx(packet.time_s, rel=TIME_RTOL)


@pytest.mark.parametrize(
    "workers, elements, sparsity",
    [(2, 2_500_017, 0.5), (3, 1_200_000, 0.9)],
    ids=["3-chunks-tail", "2-chunks"],
)
def test_flow_matches_packet_across_prefetch_chunks(workers, elements, sparsity):
    _assert_equivalent(*_multi_chunk_pair(workers, elements, sparsity, True))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: without deterministic mode the flow engine "
    "folds a round in its own booked arrival order, which can differ "
    "from the packet slot's",
)
def test_flow_matches_packet_across_prefetch_chunks_nondeterministic():
    _assert_equivalent(*_multi_chunk_pair(3, 1_200_000, 0.9, False))
