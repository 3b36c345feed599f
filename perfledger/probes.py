"""Probes: direct timed loops over one public function each, best of 5.

A probe answers "what does this one call cost on this box" with inputs
shaped like the workloads', so a per-layer claim ("timer churn is 20%
cheaper") has a number that does not depend on the rest of a pass.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np

from repro import Cluster, ClusterSpec
from repro.core.partition import FusionLayout, plan_streams
from repro.netsim import FatTreeTopology, Simulator, rack_map_for
from repro.netsim.flow import cpu_chain, serialize_chain
from repro.tensors import block_sparse_tensors
from repro.tensors.accumulate import CooAccumulator
from repro.tensors.blocks import BlockView, block_nonzero_bitmap
from repro.tensors.sparse import CooTensor

__all__ = ["run_all"]

REPEATS = 5
_CHAIN_JOBS = 65_536
_KERNEL_OPS = 20_000
_BITMAP_BYTES = 64 << 20

def _best(fn: Callable[[], object]) -> float:
    """Best wall time of ``REPEATS`` calls (the first also warms up)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _noop() -> None:
    pass


def _call_after() -> None:
    """Schedule and dispatch no-ops: the plain event path."""
    sim = Simulator()
    for i in range(_KERNEL_OPS):
        sim.call_after(1e-6 * (i % 97), _noop)
    sim.run()


def _timer_churn() -> None:
    """Arm and cancel retransmission-style timers that never fire."""
    sim = Simulator()
    for i in range(_KERNEL_OPS):
        sim.cancel(sim.call_after(300e-6 + 1e-9 * i, _noop))
    sim.run()


def run_all() -> Dict[str, float]:
    rng = np.random.default_rng(0)
    out: Dict[str, float] = {}

    out["netsim.kernel.probe_call_after_ns"] = _best(_call_after) / _KERNEL_OPS * 1e9
    out["netsim.kernel.probe_timer_churn_ns"] = _best(_timer_churn) / _KERNEL_OPS * 1e9

    ready = np.sort(rng.random(_CHAIN_JOBS)) * 1e-3
    durations = np.full(_CHAIN_JOBS, 1024 * 8 / 10e9)
    out["netsim.flow.probe_serialize_chain_ns_per_job"] = (
        _best(lambda: serialize_chain(ready, durations, 0.0)) / _CHAIN_JOBS * 1e9
    )
    out["netsim.flow.probe_cpu_chain_ns_per_job"] = (
        _best(lambda: cpu_chain(ready, 1e-7, 0.0)) / _CHAIN_JOBS * 1e9
    )

    # One cross-rack message of 256-byte segments through uplink, hashed
    # spine and downlink of the flow-fattree workload's first row.
    topology = FatTreeTopology(
        rack_size=16, uplink_gbps=80.0, spine_gbps=320.0, spines=4,
        rack_of=rack_map_for(1024, 8, 16),
    )
    Cluster(ClusterSpec(workers=1024, aggregators=8), topology=topology)
    sizes = np.full(_CHAIN_JOBS, 256)
    out["netsim.topology.probe_traverse_core_chain_ns_per_segment"] = (
        _best(lambda: topology.traverse_core_chain(ready, "worker-0", "agg-0", sizes))
        / _CHAIN_JOBS * 1e9
    )

    dense = rng.standard_normal(_BITMAP_BYTES // 4).astype(np.float32)
    for block in (64, 256):
        out[f"tensors.probe_bitmap_b{block}_gbps"] = (
            _BITMAP_BYTES / _best(lambda: block_nonzero_bitmap(dense, block)) / 1e9
        )
    del dense

    # 8-way fan-in of 90%-block-sparse contributions, as the sparcml,
    # agsparse and parallax cells of packet-sweep reduce them.
    contributions = [
        CooTensor.from_dense(t)
        for t in block_sparse_tensors(8, 262_144, 256, 0.9, rng=np.random.default_rng(1))
    ]
    nnz = sum(c.nnz for c in contributions)

    def coo_add():
        total = contributions[0]
        for other in contributions[1:]:
            total = total.add(other)

    accumulator = CooAccumulator(262_144)

    def accumulate():
        for c in contributions:
            accumulator.add_coo(c)
        accumulator.drain()

    out["tensors.probe_coo_add_mnnz_per_s"] = nnz / _best(coo_add) / 1e6
    out["tensors.probe_accumulator_mnnz_per_s"] = nnz / _best(accumulate) / 1e6
    out["tensors.probe_generate_melem_per_s"] = 8 * 262_144 / _best(
        lambda: block_sparse_tensors(8, 262_144, 256, 0.9, rng=np.random.default_rng(2))
    ) / 1e6

    # packet-sweep's planner inputs: 1024 blocks over 8 shards.
    view = BlockView(block_sparse_tensors(1, 262_144, 256, 0.9, rng=rng)[0], 256)
    plan = plan_streams(view.blocks, 8, 4)
    out["core.partition.probe_plan_streams_us"] = (
        _best(lambda: plan_streams(view.blocks, 8, 4)) * 1e6
    )

    def layouts():
        fresh = BlockView(view.flat, 256)  # the residue cache is per view
        for stream in plan:
            FusionLayout(fresh, stream, 4)

    out["core.partition.probe_fusion_layout_us"] = _best(layouts) * 1e6
    return out
