"""FlowOmniReduce vs the packet engine: the equivalence contract.

Every test builds two identical clusters from the same seeded spec,
runs the exact packet engine on one and the flow engine on the other,
and checks the contract the differential gauntlet enforces at scale:
bit-identical tensors, exactly equal wire counters, completion time
within ``TIME_RTOL``.
"""

import numpy as np
import pytest

from repro.conformance.patterns import make_tensors
from repro.core.collective import OmniReduce
from repro.core.config import OmniReduceConfig
from repro.core import flowreduce
from repro.core.flowreduce import TIME_RTOL, FlowOmniReduce
from repro.core.prefetch import LinearReadiness
from repro.faults import AggregatorCrash, FaultPlan, StragglerSchedule
from repro.netsim import Cluster, ClusterSpec
from repro.netsim.flow import FlowUnsupported, flow_view

pytestmark = pytest.mark.flowmode


def _tensors(workers=4, elements=2048, block=64, pattern="uniform", seed=0):
    return make_tensors(pattern, workers, elements, block, seed)


def _run_pair(config=None, workers=4, aggregators=None, tensors=None,
              faults=None, **allreduce_kw):
    config = config or OmniReduceConfig()
    aggregators = aggregators if aggregators is not None else workers
    tensors = tensors if tensors is not None else _tensors(workers)
    results = []
    for flow in (False, True):
        plan = faults() if callable(faults) else faults
        cluster = Cluster(
            ClusterSpec(workers=workers, aggregators=aggregators), faults=plan
        )
        if flow:
            engine = FlowOmniReduce(flow_view(cluster), config)
        else:
            engine = OmniReduce(cluster, config)
        results.append(
            engine.allreduce([t.copy() for t in tensors], **allreduce_kw)
        )
    return results


def _assert_equivalent(packet, flow):
    for p_out, f_out in zip(packet.outputs, flow.outputs):
        assert np.array_equal(np.asarray(p_out), np.asarray(f_out))
    assert flow.bytes_sent == packet.bytes_sent
    assert flow.packets_sent == packet.packets_sent
    assert flow.upward_bytes == packet.upward_bytes
    assert flow.downward_bytes == packet.downward_bytes
    assert flow.rounds == packet.rounds
    assert flow.retransmissions == packet.retransmissions == 0
    assert flow.time_s == pytest.approx(packet.time_s, rel=TIME_RTOL)


def test_flow_engine_matches_packet_engine():
    packet, flow = _run_pair()
    _assert_equivalent(packet, flow)


def test_flow_engine_matches_without_determinism():
    packet, flow = _run_pair(config=OmniReduceConfig(deterministic=False))
    _assert_equivalent(packet, flow)


def test_flow_engine_matches_on_non_divisible_tail():
    tensors = _tensors(elements=2048 - 17)
    packet, flow = _run_pair(tensors=tensors)
    _assert_equivalent(packet, flow)


def test_flow_engine_folds_tail_block_requested_by_an_early_lane():
    """Lanes need not request blocks in ascending order: here lane 0
    asks for the tail block 4 in the same round lane 1 asks for block
    3, so the tail sits in the fold's first row, not its last."""
    bs = 4
    tensors = [np.zeros(4 * bs + 2, np.float32) for _ in range(2)]
    tensors[0][[0, bs, 3 * bs]] = 1.0, 2.0, 3.0
    tensors[1][4 * bs + 1] = 4.0
    config = OmniReduceConfig(
        block_size=bs, message_bytes=2 * (bs * 4 + 8) + 4, streams_per_shard=1
    )
    packet, flow = _run_pair(config=config, workers=2, aggregators=1,
                             tensors=tensors)
    assert flow.details["fusion_width"] == 2
    _assert_equivalent(packet, flow)


def test_flow_engine_matches_on_all_zero_input():
    tensors = _tensors(pattern="all-zero")
    packet, flow = _run_pair(tensors=tensors)
    _assert_equivalent(packet, flow)
    assert flow.details.get("zero_blocks_suppressed") == packet.details.get(
        "zero_blocks_suppressed"
    )


def test_flow_engine_matches_with_shared_shards():
    # Fewer aggregators than workers: multicast fan-out shares NICs.
    packet, flow = _run_pair(workers=4, aggregators=2)
    _assert_equivalent(packet, flow)


def test_flow_engine_matches_under_straggler():
    def plan():
        return FaultPlan(
            stragglers=(
                StragglerSchedule(worker=0, delay_s=200e-6, slowdown=2.0),
            )
        )

    packet, flow = _run_pair(
        config=OmniReduceConfig(recovery=False), faults=plan
    )
    _assert_equivalent(packet, flow)


def test_flow_engine_matches_with_start_delays():
    packet, flow = _run_pair(
        worker_start_delays=[0.0, 5e-6, 1e-6, 2.5e-6]
    )
    _assert_equivalent(packet, flow)


def test_order_trace_records_per_round_responder_orders():
    tensors = _tensors()
    flowreduce.ORDER_TRACE = trace = []
    try:
        cluster = Cluster(ClusterSpec(workers=4, aggregators=4))
        engine = FlowOmniReduce(
            flow_view(cluster), OmniReduceConfig(deterministic=False)
        )
        result = engine.allreduce([t.copy() for t in tensors])
    finally:
        flowreduce.ORDER_TRACE = None
    assert result.complete
    assert trace, "non-deterministic runs must record fold orders"
    for _stream, _round, order in trace:
        # Each round's fold order is a permutation of distinct workers.
        assert len(set(order)) == len(order)
        assert all(0 <= w < 4 for w in order)


def test_flow_unsupported_gates():
    tensors = _tensors()

    def expect_refusal(config=None, faults=None, **kw):
        cluster = Cluster(
            ClusterSpec(workers=4, aggregators=4), faults=faults
        )
        engine = FlowOmniReduce(
            flow_view(cluster), config or OmniReduceConfig()
        )
        with pytest.raises(FlowUnsupported):
            engine.allreduce([t.copy() for t in tensors], **kw)

    # Algorithm 2 recovery needs per-packet retransmission timers.
    expect_refusal(config=OmniReduceConfig(recovery=True))
    # Deadline preemption cuts streams mid-flight, per packet.
    expect_refusal(config=OmniReduceConfig(deadline_s=1e-6))
    # Crash failover re-routes in-flight packets.
    expect_refusal(
        faults=FaultPlan(
            aggregator_crashes=(
                AggregatorCrash(
                    shard=0,
                    time_s=50e-6,
                    restart_delay_s=100e-6,
                    failover_shard=1,
                ),
            )
        ),
        config=OmniReduceConfig(recovery=False),
    )
    # Gradient readiness is refused until flow folds follow packet
    # arrival order (ROADMAP 9a waits on 10b).
    expect_refusal(
        gradient_readiness=[LinearReadiness(tensors[0].nbytes, 1e-4)] * 4
    )


def test_switchml_flow_matches_packet():
    from repro.baselines.switchml import SwitchMLAllReduce

    tensors = _tensors()
    results = []
    for flow in (False, True):
        cluster = Cluster(ClusterSpec(workers=4, aggregators=4))
        target = flow_view(cluster) if flow else cluster
        results.append(
            SwitchMLAllReduce(target).allreduce([t.copy() for t in tensors])
        )
    packet, flow = results
    _assert_equivalent(packet, flow)
    assert flow.details["algorithm"] == "switchml*"


def _fat_tree():
    from repro.netsim import FatTreeTopology, rack_map_for

    return FatTreeTopology(
        rack_size=2, uplink_gbps=20.0, spine_gbps=20.0, spines=1,
        rack_of=rack_map_for(4, 4, 2),
    )


@pytest.mark.parametrize(
    "name, spec, topology, options",
    [
        ("omnireduce", dict(aggregators=2), None, {}),
        ("omnireduce", dict(colocated=True), None, {}),
        ("omnireduce", dict(gdr=True), None, {}),
        ("rackhier", {}, _fat_tree, {"rack_size": 2}),
    ],
    ids=["flat", "colocated", "gdr", "rackhier-fat-tree"],
)
def test_flow_mode_books_egress_busy_time(name, spec, topology, options):
    """The observatory's duty cycle reads ``Host.egress_busy_s``: the
    flow engines' reserve-at-begin booking must charge each host the
    same serialization time the packet kernel does."""
    from repro.baselines import ALGORITHMS, prepare

    tensors = _tensors(elements=8192, pattern="uniform")
    busy = {}
    for mode in ("packet", "flow"):
        cluster = Cluster(
            ClusterSpec(workers=4, **{"aggregators": 4, **spec}),
            topology=topology() if topology else None,
        )
        opts = ALGORITHMS[name].options_cls(sim_mode=mode, **options)
        prepare(name, cluster, opts).allreduce(tensors)
        busy[mode] = {
            h: cluster.network.host(h).egress_busy_s for h in cluster.network.hosts
        }
    assert any(busy["packet"].values())
    for host, seconds in busy["packet"].items():
        assert busy["flow"][host] == pytest.approx(seconds, rel=1e-12)
