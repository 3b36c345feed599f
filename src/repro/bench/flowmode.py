"""Flow-mode throughput benchmark: ``figure-6-flow``.

Runs the Figure-6-scale sparse AllReduce (1024 workers, 8 aggregator
shards, 65536 elements per worker) through the flow simulator at three
sparsities, then runs the exact packet kernel once on the *identical*
reference workload and reports the measured speedup: packet wall time
divided by flow wall time on the same tensors, same config, same
machine, same process.

:func:`paired_check` is that pairing, shared with ``figure-6-scale``
(:mod:`repro.bench.scale`): the packet run doubles as a full-scale
differential -- bit-identical result tensors and exactly equal wire
counters are asserted before any throughput number is trusted -- and
the experiment raises when the reference speedup falls below its floor.
Rows the packet kernel did not run are rated against the reference's
wire packets per second (:meth:`PairedRun.speedup_for`).

Measurement order matters on this workload: the flow sweep runs
*before* the packet reference because a full-scale packet run churns
enough allocator state to slow subsequent numpy-heavy flow rounds by
2-3x in the same process.  Keep ``figure-6-flow`` in its own
``python -m repro.bench`` invocation (CI does) rather than after
another packet-mode experiment.
"""

from __future__ import annotations

import time
from typing import Callable, List, NamedTuple, Tuple

import numpy as np

from ..baselines import OmniReduceOptions, prepare
from ..core.collective import CollectiveResult
from ..core.config import OmniReduceConfig
from ..netsim import Cluster, ClusterSpec
from .harness import ExperimentResult

__all__ = [
    "fig06_flow",
    "element_sparse_tensors",
    "best_of_2",
    "paired_check",
    "PairedRun",
]

#: The run raises when flow mode is less than this many times faster
#: than the packet kernel, wall over wall, on the reference workload.
SPEEDUP_FLOOR = 70.0

#: Figure-6-scale sweep conditions.
WORKERS = 1024
AGGREGATORS = 8
ELEMENTS = 65536
SPARSITIES = (0.9, 0.96, 0.99)
#: Sparsity of the paired packet reference run (the speedup gate).
REFERENCE_SPARSITY = 0.96
SEED = 7


def element_sparse_tensors(
    workers: int, elements: int, sparsity: float
) -> List[np.ndarray]:
    """Element-wise sparse gradients (every block carries nonzeros).

    Element-wise sparsity keeps nearly every 64-element block nonzero
    across the fleet, so the protocol streams close to the maximum
    number of wire packets -- the regime where per-packet simulation is
    most expensive and the flow fast path matters most.  (Block-
    structured sparsity suppresses most of the wire traffic and
    measures mostly the engines' shared bookkeeping.)
    """
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(workers):
        t = rng.standard_normal(elements).astype(np.float32)
        t[rng.random(elements) < sparsity] = 0.0
        out.append(t)
    return out


def best_of_2(run: Callable[[], CollectiveResult]) -> Tuple[CollectiveResult, float]:
    """The faster of two timed runs, with its wall seconds.

    A sub-second numpy-bound run is at the mercy of transient scheduler
    noise on a shared core; the faster of two runs is the engine's
    actual cost.  (The packet reference averages such spikes out over
    tens of seconds and is run once.)
    """
    best = None
    for _ in range(2):
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
        if best is None or wall < best[1]:
            best = (result, wall)
    return best


class PairedRun(NamedTuple):
    """A flow run and the packet run it reproduced exactly."""

    flow: CollectiveResult
    flow_wall_s: float
    packet_wall_s: float

    @property
    def speedup(self) -> float:
        """Packet wall time over flow wall time on the shared workload."""
        return self.packet_wall_s / self.flow_wall_s

    def speedup_for(self, packets: int, wall_s: float) -> float:
        """Speedup of a flow run that sent ``packets`` in ``wall_s``.

        Its wire packets per second over the packet reference's: the
        packet kernel's cost is rated per wire packet, so rows it did
        not run are compared at equal traffic.
        """
        return (packets / wall_s) / (self.flow.packets_sent / self.packet_wall_s)


def paired_check(run: Callable[[bool], CollectiveResult], floor: float) -> PairedRun:
    """Time ``run(flow=True)`` best-of-2, then the packet reference.

    ``run(flow)`` executes the reference workload in flow or packet
    mode.  Raises :class:`RuntimeError` unless the flow result has
    bit-identical tensors and exactly equal wire counters, and unless
    flow mode is at least ``floor`` times faster, wall over wall.
    """
    flow, flow_wall = best_of_2(lambda: run(True))
    start = time.perf_counter()
    packet = run(False)
    packet_wall = time.perf_counter() - start

    for p_out, f_out in zip(packet.outputs, flow.outputs):
        if not np.array_equal(np.asarray(p_out), np.asarray(f_out)):
            raise RuntimeError(
                "flow mode diverged from the packet kernel on the "
                "reference workload; speedup numbers would be meaningless"
            )
    for name in ("bytes_sent", "packets_sent", "upward_bytes", "downward_bytes"):
        if getattr(packet, name) != getattr(flow, name):
            raise RuntimeError(
                f"flow mode diverged from the packet kernel on {name}; "
                "speedup numbers would be meaningless"
            )

    paired = PairedRun(flow, flow_wall, packet_wall)
    if paired.speedup < floor:
        raise RuntimeError(
            f"flow mode speedup {paired.speedup:.1f}x on the reference "
            f"workload fell below the floor {floor:.0f}x"
        )
    return paired


def _config() -> OmniReduceConfig:
    return OmniReduceConfig(
        block_size=64,
        message_bytes=1024,
        streams_per_shard=1,
        deterministic=True,
    )


def _run(spec: ClusterSpec, tensors, flow: bool):
    options = OmniReduceOptions(
        config=_config(), sim_mode="flow" if flow else "packet"
    )
    # The engines do not mutate their inputs, so the same tensor list
    # is reused across rows without copying into the timed region.
    return prepare("omnireduce", Cluster(spec), options).allreduce(tensors)


def fig06_flow() -> ExperimentResult:
    """``figure-6-flow``: paired packet-vs-flow throughput at scale."""
    result = ExperimentResult(
        "figure-6-flow",
        f"Flow-mode sparse AllReduce at figure-6 scale "
        f"({WORKERS} workers, {AGGREGATORS} shards, {ELEMENTS} elems/worker)",
        ["sparsity", "flow_wall_s", "wire_packets", "speedup_vs_packet"],
    )
    spec = ClusterSpec(workers=WORKERS, aggregators=AGGREGATORS)

    # Untimed warmup: first-touch page faults and import-time numpy
    # dispatch otherwise land in the first timed row.
    _run(
        spec,
        element_sparse_tensors(WORKERS, ELEMENTS // 8, REFERENCE_SPARSITY),
        flow=True,
    )

    # Non-reference rows first, keeping only scalars: holding a
    # previous row's 256 MB tensor set (or result outputs) alive while
    # the next row runs fragments the heap enough to multiply the
    # numpy-bound round loop's cost by 3-4x on a small-cache core.
    flow_rows = {}
    for sparsity in SPARSITIES:
        if sparsity == REFERENCE_SPARSITY:
            continue
        tensors = element_sparse_tensors(WORKERS, ELEMENTS, sparsity)
        flow_result, wall = best_of_2(lambda: _run(spec, tensors, flow=True))
        flow_rows[sparsity] = (wall, flow_result.packets_sent)
        del tensors, flow_result

    # The gated reference row runs on a clean heap, then the packet
    # reference on the identical workload -- strictly after every flow
    # row (see module docstring on ordering).
    ref_tensors = element_sparse_tensors(WORKERS, ELEMENTS, REFERENCE_SPARSITY)
    ref = paired_check(lambda flow: _run(spec, ref_tensors, flow), SPEEDUP_FLOOR)
    flow_rows[REFERENCE_SPARSITY] = (ref.flow_wall_s, ref.flow.packets_sent)

    for sparsity in SPARSITIES:
        wall_s, packets = flow_rows[sparsity]
        result.add_row(
            sparsity=int(sparsity * 100),
            flow_wall_s=wall_s,
            wire_packets=packets,
            speedup_vs_packet=ref.speedup_for(packets, wall_s),
        )

    result.notes.append(
        f"packet reference (in-run, identical workload, s="
        f"{int(REFERENCE_SPARSITY * 100)}%): {ref.packet_wall_s:.2f}s wall; "
        "bit-identical tensors and exact wire counters asserted before "
        "computing speedups; other rows are rated at the reference's "
        "wire packets per second"
    )
    result.notes.append(
        "conditions (both modes): block_size=64, message_bytes=1024, "
        f"streams_per_shard=1, deterministic=True, seed {SEED}, "
        "element-wise sparsity (near-maximal wire traffic); flow rows "
        "are best-of-2 to shed transient scheduler noise"
    )
    result.notes.append(
        f"gate: the run raises when the reference speedup falls below "
        f"{SPEEDUP_FLOOR:.0f}x (measured {ref.speedup:.1f}x wall/wall)"
    )
    return result
