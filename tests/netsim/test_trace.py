"""Tests for network packet observers and the golden-trace recorder."""

import numpy as np

from repro.core import OmniReduce, OmniReduceConfig
from repro.netsim import (
    BernoulliLoss,
    Cluster,
    ClusterSpec,
    HostConfig,
    Network,
    Packet,
    Simulator,
    attach_tracer,
    gbps,
)
from repro.tensors import block_sparse_tensors


def traced_pair(loss=None, bandwidth_gbps=10.0):
    sim = Simulator()
    net = Network(sim, latency_s=1e-6, loss=loss)
    config = HostConfig(bandwidth_bps=gbps(bandwidth_gbps))
    net.add_host("a", config)
    net.add_host("b", config)
    tracer = attach_tracer(net)
    return sim, net, tracer


def test_records_send_and_delivery():
    sim, net, tracer = traced_pair()
    net.transmit(Packet("a", "b", "x", 1000, flow="f"))
    net.host("b").port()
    sim.run()
    kinds = [e.kind for e in tracer.events]
    assert kinds == ["sent", "delivered"]
    assert tracer.events[0].time_s <= tracer.events[1].time_s


def test_records_drops():
    loss = BernoulliLoss(1.0, np.random.default_rng(0))
    sim, net, tracer = traced_pair(loss=loss)
    net.transmit(Packet("a", "b", "x", 1000))
    sim.run()
    assert [e.kind for e in tracer.events] == ["sent", "dropped"]


def test_drop_reported_at_would_be_arrival_time():
    loss = BernoulliLoss(1.0, np.random.default_rng(0))
    sim, net, tracer = traced_pair(loss=loss)
    net.transmit(Packet("a", "b", "x", 1250))
    sim.run()
    # 1250 B at 10 Gbps serialize in 1 us, then 1 us of wire latency.
    assert tracer.events[1].time_s == 1250 * 8.0 / gbps(10.0) + 1e-6


def test_drop_callback_still_invoked():
    loss = BernoulliLoss(1.0, np.random.default_rng(0))
    sim, net, tracer = traced_pair(loss=loss)
    dropped = []
    net.transmit(Packet("a", "b", "x", 1000), on_drop=lambda p: dropped.append(p))
    sim.run()
    assert len(dropped) == 1
    assert [e.kind for e in tracer.events] == ["sent", "dropped"]


def test_tracing_full_collective():
    """The tracer composes with a whole OmniReduce run."""
    cluster = Cluster(
        ClusterSpec(workers=2, aggregators=1, bandwidth_gbps=10, transport="rdma")
    )
    tracer = attach_tracer(cluster.network)
    tensors = block_sparse_tensors(2, 16 * 16, 16, 0.5, rng=np.random.default_rng(0))
    config = OmniReduceConfig(block_size=16, streams_per_shard=2, message_bytes=512)
    result = OmniReduce(cluster, config).allreduce(tensors)
    np.testing.assert_allclose(
        result.output, np.sum(np.stack(tensors), axis=0), rtol=1e-5
    )
    sent = [e for e in tracer.events if e.kind == "sent"]
    delivered = [e for e in tracer.events if e.kind == "delivered"]
    assert len(sent) == result.packets_sent
    assert len(delivered) == len(sent)  # lossless transport
    # Both directions are observed.
    senders = {e.src for e in sent}
    assert "worker-0" in senders and "agg-0" in senders


class _RecordingObserver:
    def __init__(self):
        self.events = []

    def observe(self, time_s, kind, packet):
        self.events.append((time_s, kind, packet))


def test_tracer_listeners_see_live_packets_with_payload():
    sim, net, tracer = traced_pair()
    observer = _RecordingObserver()
    net.observers.append(observer)
    net.transmit(Packet(src="a", dst="b", payload={"blocks": 3}, size_bytes=128))
    sim.run()
    kinds = [kind for _, kind, _ in observer.events]
    assert kinds == ["sent", "delivered"]
    # Observers get the real Packet, payload included (TraceEvent does not).
    assert observer.events[0][2].payload == {"blocks": 3}
    assert len(tracer.events) == 2


def test_tracer_add_listener_after_attach():
    sim, net, tracer = traced_pair()
    observer = _RecordingObserver()
    net.observers.append(observer)
    net.transmit(Packet(src="a", dst="b", payload=None, size_bytes=64))
    sim.run()
    assert [kind for _, kind, _ in observer.events] == ["sent", "delivered"]
    # The tracer attached first keeps recording alongside the later observer.
    assert [e.kind for e in tracer.events] == ["sent", "delivered"]


def test_tracer_listener_sees_drops():
    sim, net, _ = traced_pair(loss=BernoulliLoss(1.0, np.random.default_rng(0)))
    observer = _RecordingObserver()
    net.observers.append(observer)
    net.transmit(Packet(src="a", dst="b", payload=None, size_bytes=64))
    sim.run()
    assert [kind for _, kind, _ in observer.events] == ["sent", "dropped"]


def test_removed_observer_sees_nothing_more():
    sim, net, tracer = traced_pair()
    observer = _RecordingObserver()
    net.observers.append(observer)
    net.transmit(Packet(src="a", dst="b", payload=None, size_bytes=64))
    sim.run()
    net.observers.remove(observer)
    net.transmit(Packet(src="a", dst="b", payload=None, size_bytes=64))
    sim.run()
    assert [kind for _, kind, _ in observer.events] == ["sent", "delivered"]
    assert len(tracer.events) == 4

