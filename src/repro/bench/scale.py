"""Datacenter-scale fat-tree sweep: ``figure-6-scale``.

Runs the rack-hierarchical sparse AllReduce
(:class:`~repro.core.rackreduce.RackHierarchicalOmniReduce`) through
the flow simulator across a fleet-size sweep -- 512 to 4096 workers on
oversubscribed three-tier fat trees -- and pairs it with one exact
packet-kernel run on the smallest row's *identical* workload.  The
reported speedup is packet wall time divided by flow wall time on the
same tensors, same topology, same segmenting, same process.

Every row holds the aggregate tensor volume constant (``2**25``
elements split evenly across the fleet), so each scale point simulates
the same data while the *fabric* grows: more racks contending for the
shared leaf uplinks and ECMP-hashed spine pipes.  The ``sim_time_ms``
column is the modeled collective completion time -- the quantity the
sweep exists to predict -- and shrinks as the per-worker shard (and
each rack's uplink dwell time) shrinks.

The pairing is :func:`repro.bench.flowmode.paired_check`: bit-identical
result tensors and exactly equal wire counters are asserted before any
throughput number is trusted, and the run raises below
:data:`SPEEDUP_FLOOR`.  The larger rows are rated against the
reference's wire packets per second.

Measurement order matters: the flow sweep runs *before* the packet
reference because a full-scale packet run churns enough allocator
state to slow subsequent numpy-heavy flow rounds (see
:mod:`repro.bench.flowmode`).  Keep ``figure-6-scale`` in its own
``python -m repro.bench`` invocation.
"""

from __future__ import annotations

from ..baselines.api import RackHierarchicalOptions
from ..baselines.registry import ALGORITHMS
from ..netsim import Cluster, ClusterSpec, FatTreeTopology, rack_map_for
from .flowmode import SEED, best_of_2, element_sparse_tensors, paired_check
from .harness import ExperimentResult

__all__ = ["fig06_scale"]

#: The run raises when flow mode is less than this many times faster
#: than the packet kernel, wall over wall, on the reference row.
SPEEDUP_FLOOR = 35.0

#: Sweep rows: (workers, rack_size, oversubscription).  The first row
#: is the shared packet/flow reference point.
ROWS = (
    (512, 16, 2),
    (1024, 16, 2),
    (2048, 16, 2),
    (4096, 16, 2),
    (4096, 32, 4),
)
REFERENCE_ROW = ROWS[0]

AGGREGATORS = 8
#: Aggregate tensor volume, split evenly across the fleet per row.
TOTAL_ELEMENTS = 1 << 25
SPARSITY = 0.9
SEGMENT_BYTES = 256
NIC_GBPS = 10.0
SPINES = 4


def _tensors(workers: int):
    """``TOTAL_ELEMENTS / workers`` element-sparse elements per worker."""
    return element_sparse_tensors(workers, TOTAL_ELEMENTS // workers, SPARSITY)


def _cluster(workers: int, rack_size: int, oversub: int) -> Cluster:
    """An oversubscribed three-tier fat tree for one sweep row.

    Each rack's shared uplink carries ``rack_size * NIC / oversub``;
    the four ECMP-hashed spine pipes each carry four uplinks' worth.
    Aggregators share their own rack after the worker racks.
    """
    uplink = rack_size * NIC_GBPS / oversub
    topology = FatTreeTopology(
        rack_size=rack_size,
        uplink_gbps=uplink,
        spine_gbps=4 * uplink,
        spines=SPINES,
        rack_of=rack_map_for(workers, AGGREGATORS, rack_size),
    )
    return Cluster(ClusterSpec(workers=workers, aggregators=AGGREGATORS), topology=topology)


def _run(row, tensors, flow: bool):
    workers, rack_size, oversub = row
    options = RackHierarchicalOptions(
        sim_mode="flow" if flow else "packet",
        rack_size=rack_size,
        segment_bytes=SEGMENT_BYTES,
    )
    session = ALGORITHMS["rackhier"].prepare(
        _cluster(workers, rack_size, oversub), options
    )
    return session.allreduce(tensors)


def fig06_scale() -> ExperimentResult:
    """``figure-6-scale``: hierarchical fat-tree sweep, 512-4096 workers."""
    result = ExperimentResult(
        "figure-6-scale",
        f"Rack-hierarchical AllReduce on oversubscribed fat trees "
        f"({TOTAL_ELEMENTS // (1 << 20)}M elements split across the fleet, "
        f"{AGGREGATORS} shards)",
        [
            "workers", "rack", "oversub", "sim_time_ms", "flow_wall_s",
            "wire_packets", "speedup_vs_packet",
        ],
    )

    # Untimed warmup: first-touch page faults and numpy dispatch
    # otherwise land in the first timed row.
    _run((128, 16, 2), element_sparse_tensors(128, 2048, SPARSITY), flow=True)

    # Non-reference rows first, keeping only scalars: holding a row's
    # 128 MB tensor set alive while the next row runs fragments the
    # heap (see repro.bench.flowmode on ordering).
    flow_rows = {}
    for row in ROWS:
        if row == REFERENCE_ROW:
            continue
        tensors = _tensors(row[0])
        flow_result, wall = best_of_2(lambda: _run(row, tensors, flow=True))
        flow_rows[row] = (wall, flow_result.packets_sent, flow_result.time_s)
        del tensors, flow_result

    # The gated reference row runs on a clean heap, then the packet
    # reference on the identical workload -- strictly after every flow
    # row.
    ref_tensors = _tensors(REFERENCE_ROW[0])
    ref = paired_check(
        lambda flow: _run(REFERENCE_ROW, ref_tensors, flow), SPEEDUP_FLOOR
    )
    flow_rows[REFERENCE_ROW] = (
        ref.flow_wall_s, ref.flow.packets_sent, ref.flow.time_s
    )

    for row in ROWS:
        workers, rack_size, oversub = row
        wall_s, packets, sim_time = flow_rows[row]
        result.add_row(
            workers=workers,
            rack=rack_size,
            oversub=f"{oversub}:1",
            sim_time_ms=sim_time * 1e3,
            flow_wall_s=wall_s,
            wire_packets=packets,
            speedup_vs_packet=ref.speedup_for(packets, wall_s),
        )

    result.notes.append(
        f"packet reference (in-run, identical workload, "
        f"{REFERENCE_ROW[0]} workers): {ref.packet_wall_s:.2f}s wall; "
        "bit-identical tensors and exact wire counters asserted before "
        "computing speedups; other rows are rated at the reference's "
        "wire packets per second"
    )
    result.notes.append(
        f"conditions (both modes): rackhier engines, block_size=64, "
        f"segment_bytes={SEGMENT_BYTES}, {AGGREGATORS} aggregator shards, "
        f"seed {SEED}, {int(SPARSITY * 100)}% element-wise sparsity; "
        f"fat tree: rack uplink = rack*{NIC_GBPS:.0f}/oversub Gbps, "
        f"{SPINES} spine pipes at 4x uplink each; flow rows best-of-2"
    )
    result.notes.append(
        f"gate: the run raises when the reference speedup falls below "
        f"{SPEEDUP_FLOOR:.0f}x (measured {ref.speedup:.1f}x wall/wall)"
    )
    return result
