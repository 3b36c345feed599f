"""Protocol invariants, checked by inspecting every packet on the wire.

The central claim of the paper -- "zero blocks are not transmitted" --
is asserted here literally: a spy transport records every protocol
message and the tests verify that no data lane ever carries an all-zero
block (in either direction), that transmitted data volume equals the
workers' non-zero block volume exactly, and that dense (SwitchML*) mode
is the only way zero data travels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OmniReduce, OmniReduceConfig, ProtocolFeatures
from repro.core.messages import ResultPacket, WorkerPacket
from repro.netsim import Cluster, ClusterSpec
from repro.tensors import BlockView, block_sparse_tensors


class SpyTransport:
    """Wraps a transport, recording every payload object sent."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []

    def endpoint(self, host, port):
        return _SpyEndpoint(self, self.inner.endpoint(host, port))

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _SpyEndpoint:
    def __init__(self, spy, inner):
        self._spy = spy
        self._inner = inner

    def send(self, dst_host, dst_port, payload, payload_bytes, flow=""):
        self._spy.sent.append(payload)
        self._inner.send(dst_host, dst_port, payload, payload_bytes, flow)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def run_with_spy(tensors, transport="rdma", **config_kwargs):
    cluster = Cluster(
        ClusterSpec(workers=len(tensors), aggregators=2,
                    bandwidth_gbps=10, transport=transport)
    )
    spy = SpyTransport(cluster.transport)
    cluster.transport = spy
    defaults = dict(block_size=16, streams_per_shard=2, message_bytes=512)
    defaults.update(config_kwargs)
    config = OmniReduceConfig(**defaults)
    result = OmniReduce(cluster, config).allreduce(tensors)
    worker_packets = [p for p in spy.sent if isinstance(p, WorkerPacket)]
    result_packets = [p for p in spy.sent if isinstance(p, ResultPacket)]
    return result, worker_packets, result_packets


def make_inputs(workers=4, blocks=24, block_size=16, sparsity=0.6, seed=0):
    return block_sparse_tensors(
        workers, blocks * block_size, block_size, sparsity,
        rng=np.random.default_rng(seed),
    )


def test_no_zero_data_lane_travels_upward():
    tensors = make_inputs()
    _, worker_packets, _ = run_with_spy(tensors)
    for packet in worker_packets:
        for lane in packet.lanes:
            if lane.data is not None:
                assert lane.data.any(), (
                    f"worker {packet.worker_id} sent an all-zero block "
                    f"{lane.block}"
                )


def test_no_zero_data_lane_travels_downward():
    tensors = make_inputs()
    _, _, result_packets = run_with_spy(tensors)
    for packet in result_packets:
        for lane in packet.lanes:
            if lane.data is not None:
                assert lane.data.any()


def test_upward_data_volume_equals_nonzero_blocks_exactly():
    """Each worker transmits exactly its non-zero blocks, once each."""
    tensors = make_inputs()
    _, worker_packets, _ = run_with_spy(tensors)
    sent_per_worker = {}
    for packet in worker_packets:
        for lane in packet.lanes:
            if lane.data is not None:
                sent_per_worker.setdefault(packet.worker_id, []).append(lane.block)
    for worker_id, tensor in enumerate(tensors):
        view = BlockView(tensor, 16)
        expected = sorted(int(b) for b in view.nonzero_indices)
        got = sorted(sent_per_worker.get(worker_id, []))
        assert got == expected


def test_each_result_block_broadcast_once_per_worker():
    tensors = make_inputs(workers=3)
    _, _, result_packets = run_with_spy(tensors)
    # Every multicast produces one packet per worker; a given (stream,
    # block) result therefore appears exactly 3 times.
    from collections import Counter

    copies = Counter()
    for packet in result_packets:
        for lane in packet.lanes:
            if lane.data is not None:
                copies[(packet.stream, lane.block)] += 1
    assert copies  # something was reduced
    assert set(copies.values()) == {3}


def test_dense_mode_sends_every_block():
    tensors = make_inputs(sparsity=0.9, blocks=16)
    _, worker_packets, _ = run_with_spy(
        tensors, features=ProtocolFeatures(zero_block_suppression=False)
    )
    sent = set()
    for packet in worker_packets:
        for lane in packet.lanes:
            if lane.data is not None:
                sent.add((packet.worker_id, lane.block))
    blocks = BlockView(tensors[0], 16).blocks
    assert len(sent) == len(tensors) * blocks


def test_recovery_mode_acks_carry_no_data():
    tensors = block_sparse_tensors(
        4, 16 * 32, 16, 0.9, overlap="none", rng=np.random.default_rng(1)
    )
    # recovery=True explicitly: the spy wrapper hides the transport type
    # from the automatic selection.
    _, worker_packets, _ = run_with_spy(tensors, transport="dpdk", recovery=True)
    acks = [p for p in worker_packets if p.is_ack]
    assert acks, "disjoint sparsity must force pure-ack rounds"
    for packet in acks:
        assert all(lane.data is None for lane in packet.lanes)


def test_every_message_carries_a_valid_immediate():
    """§5: every protocol message attaches a decodable 32-bit immediate
    whose slot id and block count match the message content."""
    from repro.core.messages import decode_immediate

    tensors = make_inputs()
    _, worker_packets, result_packets = run_with_spy(tensors)
    for packet in worker_packets + result_packets:
        assert packet.immediate is not None
        data_type, opcode, slot, count = decode_immediate(packet.immediate)
        assert data_type == "float32"
        assert opcode == "sum"
        assert slot == packet.stream
        assert count == len(packet.lanes)


@given(
    sparsity=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    workers=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=20, deadline=None)
def test_property_wire_blocks_match_bitmap(sparsity, workers, seed):
    tensors = block_sparse_tensors(
        workers, 16 * 20, 16, sparsity, rng=np.random.default_rng(seed)
    )
    result, worker_packets, _ = run_with_spy(tensors)
    np.testing.assert_allclose(
        result.output, np.sum(np.stack(tensors), axis=0), rtol=1e-5, atol=1e-4
    )
    total_sent = sum(
        1 for p in worker_packets for lane in p.lanes if lane.data is not None
    )
    expected = sum(BlockView(t, 16).nonzero_count for t in tensors)
    assert total_sent == expected
