"""Rack-hierarchical sparse AllReduce: packet engine, flow engine, parity.

The packet engine is checked against the dense oracle; the flow engine
is checked against the packet engine on identical inputs -- bit-equal
tensors, exactly equal wire counters, completion time equal to
rounding (``TRANSPORT_TIME_RTOL``) -- across the shapes that exercise every protocol
edge (uneven racks, single-member racks, all-zero inputs, multi-segment
messages, fat trees, stragglers).
"""

import numpy as np
import pytest

from repro.baselines.api import RackHierarchicalOptions
from repro.baselines.registry import ALGORITHMS
from repro.conformance.differential import TRANSPORT_TIME_RTOL
from repro.core.rackreduce import RackHierarchicalOmniReduce
from repro.faults.models import AggregatorCrash, FaultPlan
from repro.netsim import Cluster, ClusterSpec, FatTreeTopology, rack_map_for
from repro.netsim.flow import FlowUnsupported

pytestmark = pytest.mark.topology

EXACT = ("bytes_sent", "packets_sent", "upward_bytes", "downward_bytes",
         "rounds", "retransmissions", "duplicates")


def _tensors(workers, elements, sparsity=0.7, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(workers):
        t = rng.standard_normal(elements).astype(np.float32)
        t[rng.random(elements) < sparsity] = 0.0
        out.append(t)
    return out


def _cluster(workers, aggregators, topology=False, rack_size=2, **spec_kw):
    topo = None
    if topology:
        topo = FatTreeTopology(
            rack_size=rack_size,
            uplink_gbps=10.0,
            spine_gbps=40.0,
            spines=2,
            rack_of=rack_map_for(workers, aggregators, rack_size),
        )
    return Cluster(ClusterSpec(workers=workers, aggregators=aggregators, **spec_kw),
                   topology=topo)


def _run(cluster, tensors, flow=False, **opts):
    options = RackHierarchicalOptions(
        sim_mode="flow" if flow else "packet", **opts
    )
    return ALGORITHMS["rackhier"].prepare(cluster, options).allreduce(tensors)


def test_packet_engine_matches_dense_oracle():
    tensors = _tensors(6, 1000)
    result = _run(_cluster(6, 2), tensors, rack_size=2)
    expected = np.sum(np.stack(tensors), axis=0)
    assert len(result.outputs) == 6
    for out in result.outputs:
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)
    assert result.rounds == 4
    assert result.details["racks"] == 3
    assert result.details["rack_size"] == 2
    assert result.bytes_sent > 0
    assert result.upward_bytes > 0
    assert result.downward_bytes > 0


def test_all_zero_inputs_suppress_every_block():
    workers, elements, block = 4, 512, 64
    tensors = [np.zeros(elements, dtype=np.float32) for _ in range(workers)]
    result = _run(_cluster(4, 2), tensors, rack_size=2, block_size=block)
    for out in result.outputs:
        assert not out.any()
    nblocks = elements // block
    # 2 members at up1, 2 racks at up2, 2 leaders at down1 fan-out,
    # 2 members at down2 -- every block of every leg suppressed.
    assert result.details["union_blocks"] == 0
    assert result.details["zero_blocks_suppressed"] == 8 * nblocks


@pytest.mark.parametrize(
    "workers,aggregators,rack_size,elements,kw",
    [
        (8, 2, 2, 2048, {}),
        (5, 2, 2, 1000, {}),           # ragged tail rack
        (4, 2, 1, 600, {}),            # every worker its own rack
        (4, 2, 4, 600, {}),            # one big rack
        (4, 16, 2, 256, {}),           # more shards than blocks
        (6, 2, 3, 5000, {"segment_bytes": 256}),  # multi-segment messages
        (1, 1, 2, 300, {}),            # single worker
    ],
)
def test_flow_matches_packet_flat(workers, aggregators, rack_size, elements, kw):
    tensors = _tensors(workers, elements)
    pres = _run(_cluster(workers, aggregators), tensors,
                rack_size=rack_size, **kw)
    fres = _run(_cluster(workers, aggregators), tensors, flow=True,
                rack_size=rack_size, **kw)
    for p, f in zip(pres.outputs, fres.outputs):
        assert np.array_equal(p, f)
    for name in EXACT:
        assert getattr(pres, name) == getattr(fres, name), name
    assert fres.time_s == pytest.approx(pres.time_s, rel=TRANSPORT_TIME_RTOL)


@pytest.mark.parametrize("sparsity", [0.0, 0.7, 1.0])
def test_flow_matches_packet_on_fat_tree(sparsity):
    tensors = _tensors(8, 4096, sparsity=sparsity)
    pres = _run(_cluster(8, 2, topology=True), tensors,
                rack_size=2, segment_bytes=512)
    fres = _run(_cluster(8, 2, topology=True), tensors, flow=True,
                rack_size=2, segment_bytes=512)
    for p, f in zip(pres.outputs, fres.outputs):
        assert np.array_equal(p, f)
    for name in EXACT:
        assert getattr(pres, name) == getattr(fres, name), name
    assert fres.time_s == pytest.approx(pres.time_s, rel=TRANSPORT_TIME_RTOL)


def test_flow_matches_packet_with_stragglers():
    tensors = _tensors(8, 2048)
    delays = [0.0, 2e-4, 0.0, 5e-5, 0.0, 0.0, 1e-4, 0.0]

    def run(flow):
        cluster = _cluster(8, 2, topology=True)
        engine_cluster = cluster
        options = RackHierarchicalOptions(
            sim_mode="flow" if flow else "packet", rack_size=2
        )
        session = ALGORITHMS["rackhier"].prepare(engine_cluster, options)
        return session.allreduce(tensors, worker_start_delays=delays)

    pres, fres = run(False), run(True)
    for p, f in zip(pres.outputs, fres.outputs):
        assert np.array_equal(p, f)
    for name in EXACT:
        assert getattr(pres, name) == getattr(fres, name), name
    assert fres.time_s == pytest.approx(pres.time_s, rel=TRANSPORT_TIME_RTOL)
    # A straggling member delays its rack's whole chain.
    base = _run(_cluster(8, 2, topology=True), tensors, rack_size=2)
    assert pres.time_s > base.time_s


def test_oversubscription_shows_up_in_completion_time():
    tensors = _tensors(8, 8192, sparsity=0.0)
    flat = _run(_cluster(8, 2), tensors, rack_size=2)
    tiered = _run(_cluster(8, 2, topology=True), tensors, rack_size=2)
    assert tiered.time_s > flat.time_s


def test_constructor_validation():
    cluster = _cluster(4, 2)
    with pytest.raises(ValueError):
        RackHierarchicalOmniReduce(cluster, rack_size=0)
    with pytest.raises(ValueError):
        RackHierarchicalOmniReduce(cluster, block_size=0)
    with pytest.raises(ValueError):
        RackHierarchicalOmniReduce(cluster, segment_bytes=0)
    colocated = Cluster(ClusterSpec(workers=4, aggregators=2, colocated=True))
    with pytest.raises(ValueError):
        RackHierarchicalOmniReduce(colocated)


def test_flow_refuses_aggregator_crashes():
    plan = FaultPlan(aggregator_crashes=[AggregatorCrash(shard=0, time_s=1e-4)])
    cluster = Cluster(ClusterSpec(workers=4, aggregators=2), faults=plan)
    with pytest.raises(FlowUnsupported):
        _run(cluster, _tensors(4, 256), flow=True)


def test_flow_refuses_datagram_transport():
    cluster = Cluster(ClusterSpec(workers=4, aggregators=2, transport="dpdk"))
    with pytest.raises(FlowUnsupported):
        _run(cluster, _tensors(4, 256), flow=True)


def test_registry_exposes_rackhier():
    assert "rackhier" in ALGORITHMS
    collective = ALGORITHMS["rackhier"]
    options = collective.default_options()
    assert isinstance(options, RackHierarchicalOptions)
    assert options.rack_size >= 1
