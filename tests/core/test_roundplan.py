"""The round plan predicts the packet engine's wire counters.

:func:`~repro.core.roundplan.plan_rounds` derives the lossless schedule
from the bitmaps alone.  A lossless packet-mode run executes Algorithm 1
message by message, so its round count and every byte and packet it
puts on the wire must equal the totals the plan lists, charged through
``transport.wire_bytes``.
"""

import itertools

import numpy as np
import pytest

from repro.conformance.patterns import make_tensors
from repro.core import OmniReduce, OmniReduceConfig, ProtocolFeatures, plan_streams
from repro.core.roundplan import plan_rounds
from repro.netsim import Cluster, ClusterSpec
from repro.tensors.blocks import num_blocks

from .test_walkthrough import BS, make_walkthrough_tensors


def _masks(tensors, block_size, suppress=True):
    total = tensors[0].size
    blocks = num_blocks(total, block_size)
    if not suppress:
        return np.ones((len(tensors), blocks), dtype=bool)
    padded = np.zeros((len(tensors), blocks * block_size), dtype=np.float32)
    for worker, tensor in enumerate(tensors):
        padded[worker, :total] = tensor
    return padded.reshape(len(tensors), blocks, block_size).any(axis=2)


def _plan_totals(plan, workers, wire):
    """(upward bytes, downward bytes, packets) the plan puts on the wire:
    a first-row packet per (stream, worker), one response per responder
    per later round, one multicast copy per worker per round."""
    up = down = packets = 0
    for st in plan.streams:
        later = st.resp_mask[:, 1:]
        up += sum(wire(int(p)) for p in st.round0_payload)
        up += sum(wire(int(p)) for p in st.resp_payload[:, 1:][later])
        down += workers * sum(wire(int(p)) for p in st.mc_payload)
        packets += workers + int(later.sum()) + workers * st.rounds
    return up, down, packets


@pytest.mark.parametrize("pattern", ["uniform", "clustered"])
@pytest.mark.parametrize(
    "lookahead,suppress,fusion", list(itertools.product([True, False], repeat=3))
)
def test_plan_predicts_packet_counters(pattern, lookahead, suppress, fusion):
    workers, block_size = 4, 32
    spec = ClusterSpec(workers=workers, aggregators=2)
    features = ProtocolFeatures(
        lookahead=lookahead, zero_block_suppression=suppress, fusion=fusion
    )
    config = OmniReduceConfig(
        block_size=block_size, streams_per_shard=2, message_bytes=600,
        features=features,
    )
    tensors = make_tensors(pattern, workers, 2000, block_size, seed=5)
    cluster = Cluster(spec)
    result = OmniReduce(cluster, config).allreduce(tensors)

    streams = plan_streams(
        num_blocks(2000, block_size), spec.num_shards,
        config.effective_streams_per_shard,
    )
    width = result.details["fusion_width"]
    plan = plan_rounds(
        _masks(tensors, block_size, suppress), streams, width, features, block_size
    )
    up, down, packets = _plan_totals(plan, workers, cluster.transport.wire_bytes)
    assert result.rounds == plan.rounds
    assert result.upward_bytes == up
    assert result.downward_bytes == down
    assert result.packets_sent == packets
    assert result.bytes_sent == up + down
    if suppress:
        assert result.details["zero_blocks_suppressed"] == plan.zero_suppressed


def test_walkthrough_request_sequence():
    """Figure 2: the aggregator requests blocks 0, 2, 3 in turn; W2 sits
    out the block-2 round."""
    tensors = make_walkthrough_tensors()
    plan = plan_rounds(
        _masks(tensors, BS), plan_streams(4, 1, 1), 1,
        ProtocolFeatures(fusion=False), BS,
    )
    (st,) = plan.streams
    assert st.req.tolist() == [[0, 2, 3]]
    assert st.resp_mask.tolist() == [[True, True, True], [True, False, True]]
    assert plan.rounds == 3
    assert plan.zero_suppressed == 3  # block 1 at both workers, block 2 at W2
