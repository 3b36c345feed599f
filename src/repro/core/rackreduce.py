"""Rack-hierarchical sparse AllReduce over tiered fabrics.

The flat OmniReduce protocol streams every worker's nonzero blocks to a
shared aggregator tier -- on an oversubscribed fabric, all of that
traffic crosses the rack uplinks.  The rack-hierarchical variant
(NetReduce-style, see PAPERS.md) reduces each rack's blocks *inside the
rack* first, so only the rack union crosses the core:

1. **up1** (intra-rack): every non-leader worker ships its nonzero
   blocks to the rack leader (the rack's first worker).
2. **up2** (rack -> spine): the leader reduces its rack's blocks --
   union-of-nonzero semantics, exactly like
   :class:`~repro.core.hierarchical.HierarchicalAllReduce` -- and ships
   each spine aggregator its shard of the rack union (block ``b``
   belongs to shard ``b % aggregators``).
3. **down1** (spine -> rack): each aggregator reduces its shard across
   racks (rack-index fold order) and ships the reduced blocks of its
   shard to every leader.
4. **down2** (intra-rack): leaders broadcast the assembled global union
   to their members.

Two engines share one :func:`_plan` -- a vectorized numpy precomputation
of the block masks, the per-rack partial sums (one ``np.add.reduceat``
over the batched worker matrix), the spine fold (a
:class:`~repro.tensors.accumulate.CooAccumulator` scatter per rack), and
every message's byte count.  Because tensors and wire counters come from
the plan, the engines agree on them **bit for bit / exactly** by
construction; only the timing machinery differs:

* :class:`RackHierarchicalOmniReduce` runs the protocol as simulator
  processes over :class:`~repro.baselines.common.SegmentedChannel` --
  the exact per-packet oracle.
* :class:`FlowRackHierarchical` replays the same event sequence
  analytically with :func:`~repro.netsim.flow.cpu_chain` /
  :func:`~repro.netsim.flow.serialize_chain`, including the shared
  topology pipes (:mod:`repro.netsim.topology`), booked in the packet
  kernel's global send-call order.  Completion times agree within
  :data:`~repro.core.flowreduce.TIME_RTOL` (the differential gauntlet
  enforces it); this is what makes 4096-worker fat-tree sweeps finish
  in seconds (``figure-6-scale``).

Both engines model NIC time only (no PCIe/GPU copy stages) and have no
loss-recovery protocol: aggregator crash plans are refused.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.common import (
    LOCAL_REDUCE_BASE_S,
    LOCAL_REDUCE_PER_PAIR_S,
    MeasuredRun,
    SegmentedChannel,
    fresh_prefix,
    validate_equal_tensors,
)
from ..netsim.flow import FlowUnsupported, HostLedger, require_flow_capable
from ..tensors.accumulate import CooAccumulator
from .features import DEFAULT_FEATURES, ProtocolFeatures
from .messages import OFFSET_BYTES, VALUE_BYTES
from .pending import PendingCollective

__all__ = [
    "RackHierarchicalOmniReduce",
    "FlowRackHierarchical",
    "DEFAULT_RACK_SIZE",
    "DEFAULT_SEGMENT_BYTES",
    "HEADER_BYTES",
]

DEFAULT_RACK_SIZE = 2
DEFAULT_SEGMENT_BYTES = 65536

#: Payload bytes of an empty (no blocks) protocol message: phases are
#: synchronous, so "nothing for you" is still announced.
HEADER_BYTES = 8

#: Per-block payload bytes: a block id plus ``block_size`` float32
#: values (the tail block is padded to full width on the wire).
def _block_bytes(block_size: int) -> int:
    return OFFSET_BYTES + VALUE_BYTES * block_size


class _Plan:
    """Everything both engines need, precomputed once per collective."""

    __slots__ = (
        "output",
        "racks",
        "leaders",
        "rack_of",
        "up1_nbytes",
        "up2_nbytes",
        "down1_nbytes",
        "down2_nbytes",
        "rack_reduce_s",
        "agg_reduce_s",
        "union_blocks",
        "total_blocks",
        "zero_blocks_suppressed",
    )


def _plan(
    flats: List[np.ndarray],
    aggregators: int,
    rack_size: int,
    block_size: int,
    suppress_zero_blocks: bool = True,
) -> _Plan:
    """Vectorized reduction + byte-accounting plan.

    The per-rack hot path batches all worker tensors into one
    ``(workers, padded)`` matrix: the block masks are one reshaped
    ``any`` sweep and the per-rack partial sums one ``np.add.reduceat``
    along the worker axis (sequential member-order fold per rack).  The
    spine fold scatters each rack's union blocks into a
    :class:`CooAccumulator` in rack order -- the same sequential
    association every aggregator's fan-in would apply.
    """
    workers = len(flats)
    size = flats[0].size
    nblocks = -(-size // block_size)
    padded = nblocks * block_size

    mat = np.zeros((workers, padded), dtype=np.float32)
    for w, flat in enumerate(flats):
        mat[w, :size] = flat
    # mask[w, b]: worker w's block b carries at least one nonzero.
    # (``any`` on the float view reduces in one pass, without the
    # workers*padded boolean temporary an explicit ``!= 0`` would make.)
    # With zero-block suppression ablated every block travels, so the
    # mask is all ones; the per-rack sums below already fold whole rows,
    # so the reduced values are unchanged.
    if suppress_zero_blocks:
        mask = mat.reshape(workers, nblocks, block_size).any(axis=2)
    else:
        mask = np.ones((workers, nblocks), dtype=bool)

    racks: List[Tuple[int, int]] = []
    lo = 0
    while lo < workers:
        racks.append((lo, min(lo + rack_size, workers)))
        lo += rack_size
    nracks = len(racks)
    starts = np.array([r[0] for r in racks], dtype=np.intp)

    # Per-rack partial sums, member-index fold order.  Blocks outside a
    # member's mask are exact zeros in ``mat``, so summing whole rows
    # equals the union-of-nonzero reduction element for element.  With
    # full racks the fold runs as ``rack_size`` contiguous row-strided
    # adds (axis-0 reduceat walks columns and is several times slower
    # at scale); both paths apply the identical left-to-right
    # association, so they are bit-equal.
    if workers == nracks * rack_size and rack_size > 1:
        r3 = mat.reshape(nracks, rack_size, padded)
        rack_sums = r3[:, 0, :].astype(np.float32, copy=True)
        for k in range(1, rack_size):
            rack_sums += r3[:, k, :]
    else:
        rack_sums = np.add.reduceat(mat, starts, axis=0)
    rack_mask = np.logical_or.reduceat(mask, starts, axis=0)
    global_mask = rack_mask.any(axis=0)

    # Spine fold: scatter each rack's union blocks, rack order.
    acc = CooAccumulator(padded, dtype=np.float32)
    elem_offsets = np.arange(block_size, dtype=np.int64)
    for r in range(nracks):
        blocks = np.flatnonzero(rack_mask[r])
        if blocks.size == 0:
            continue
        idx = (blocks[:, None] * block_size + elem_offsets).reshape(-1)
        acc.add(idx, rack_sums[r, idx])
    final = acc.drain().to_dense()

    plan = _Plan()
    plan.output = final[:size]
    plan.racks = racks
    plan.leaders = [r[0] for r in racks]
    plan.rack_of = {
        w: r for r, (lo_, hi_) in enumerate(racks) for w in range(lo_, hi_)
    }
    plan.total_blocks = nblocks

    bb = _block_bytes(block_size)
    nnzb = mask.sum(axis=1)  # nonzero blocks per worker
    plan.up1_nbytes = np.where(nnzb > 0, nnzb * bb, HEADER_BYTES).astype(np.int64)

    shard = np.arange(nblocks, dtype=np.int64) % aggregators
    # counts[r, j]: rack r's union blocks belonging to shard j.
    counts = np.zeros((nracks, aggregators), dtype=np.int64)
    for r in range(nracks):
        blocks = np.flatnonzero(rack_mask[r])
        if blocks.size:
            counts[r] = np.bincount(shard[blocks], minlength=aggregators)
    plan.up2_nbytes = np.where(counts > 0, counts * bb, HEADER_BYTES)

    union_idx = np.flatnonzero(global_mask)
    gcounts = (
        np.bincount(shard[union_idx], minlength=aggregators)
        if union_idx.size
        else np.zeros(aggregators, dtype=np.int64)
    )
    plan.down1_nbytes = np.where(gcounts > 0, gcounts * bb, HEADER_BYTES)
    plan.union_blocks = int(union_idx.size)
    plan.down2_nbytes = int(
        union_idx.size * bb if union_idx.size else HEADER_BYTES
    )

    # Local reduction charges: one charge per fan-in, a deterministic
    # function of the merged element counts (order-independent, so both
    # engines agree without replaying arrival order).
    rack_pairs = np.add.reduceat(nnzb, starts) * block_size
    plan.rack_reduce_s = (
        LOCAL_REDUCE_BASE_S + rack_pairs * LOCAL_REDUCE_PER_PAIR_S
    )
    agg_pairs = counts.sum(axis=0) * block_size
    plan.agg_reduce_s = LOCAL_REDUCE_BASE_S + agg_pairs * LOCAL_REDUCE_PER_PAIR_S

    # Block transmissions a dense hierarchy would have made but the
    # sparse one suppressed: member zero blocks at up1, rack-union zero
    # blocks at up2, and global-union zero blocks on both down legs
    # (once per leader at down1, once per member at down2).
    members = workers - nracks
    member_nnzb = int(nnzb.sum()) - int(nnzb[plan.leaders].sum())
    plan.zero_blocks_suppressed = int(
        (members * nblocks - member_nnzb)
        + (nracks * nblocks - int(rack_mask.sum()))
        + (nracks + members) * (nblocks - union_idx.size)
    )
    return plan


def _segment_payloads(nbytes: int, segment_bytes: int) -> List[int]:
    """SegmentedChannel's exact framing: payload bytes per segment."""
    nbytes = max(1, nbytes)
    nseg = -(-nbytes // segment_bytes)
    return [
        min(segment_bytes, nbytes - seg * segment_bytes) for seg in range(nseg)
    ]


class RackHierarchicalOmniReduce:
    """Rack-hierarchical sparse AllReduce: the exact packet engine.

    ``rack_size`` groups workers by index (``rack r`` is workers
    ``[r*rack_size, (r+1)*rack_size)``; the last rack may be smaller);
    the first worker of each rack is its leader.  Aim the grouping at
    the physical racks of the cluster's topology (see
    :func:`repro.netsim.topology.rack_map_for`) so intra-rack phases
    stay off the oversubscribed uplinks.
    """

    def __init__(
        self,
        cluster,
        rack_size: int = DEFAULT_RACK_SIZE,
        block_size: int = 64,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        features: Optional[ProtocolFeatures] = None,
    ) -> None:
        base = getattr(cluster, "flow_base", cluster)
        if rack_size < 1:
            raise ValueError("rack_size must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        if features is not None and not isinstance(features, ProtocolFeatures):
            raise TypeError("features must be a ProtocolFeatures instance")
        if not base.aggregator_hosts:
            raise ValueError("rack-hierarchical AllReduce needs aggregator hosts")
        if base.spec.colocated:
            raise ValueError(
                "rack-hierarchical AllReduce needs dedicated aggregator "
                "hosts; colocated shards share worker NICs"
            )
        self.cluster = cluster
        self.rack_size = rack_size
        self.block_size = block_size
        self.segment_bytes = segment_bytes
        self.features = features if features is not None else DEFAULT_FEATURES

    # -- shared helpers ----------------------------------------------------

    def _start_delays(self, cluster, worker_start_delays) -> List[float]:
        workers = cluster.spec.workers
        delays = (
            list(worker_start_delays)
            if worker_start_delays is not None
            else [0.0] * workers
        )
        if len(delays) != workers:
            raise ValueError(f"expected {workers} start delays, got {len(delays)}")
        faults = getattr(cluster, "faults", None)
        if faults is not None:
            if getattr(faults, "aggregator_crashes", ()):
                raise ValueError(
                    "rack-hierarchical AllReduce has no aggregator "
                    "failover; remove the crash plan"
                )
            for w in range(workers):
                delays[w] += faults.worker_delay_s(w)
        return delays

    def _details(self, plan: _Plan) -> Dict[str, float]:
        return {
            "racks": float(len(plan.racks)),
            "rack_size": float(self.rack_size),
            "union_blocks": float(plan.union_blocks),
            "zero_blocks_suppressed": float(plan.zero_blocks_suppressed),
        }

    def allreduce(self, tensors: Sequence[np.ndarray], **kwargs):
        return self.begin(tensors, **kwargs).wait()

    # -- packet engine -----------------------------------------------------

    def begin(
        self,
        tensors: Sequence[np.ndarray],
        worker_start_delays: Optional[Sequence[float]] = None,
    ) -> PendingCollective:
        cluster = getattr(self.cluster, "flow_base", self.cluster)
        sim = cluster.sim
        flats = validate_equal_tensors(cluster, tensors)
        workers = cluster.spec.workers
        aggs = len(cluster.aggregator_hosts)
        delays = self._start_delays(cluster, worker_start_delays)
        plan = _plan(
            flats,
            aggs,
            self.rack_size,
            self.block_size,
            self.features.zero_block_suppression,
        )
        outputs = [plan.output.copy() for _ in range(workers)]

        prefix = fresh_prefix("rh")
        up_flow = f"{prefix}.up"
        down_flow = f"{prefix}.down"
        run = MeasuredRun(self.cluster, up_flow)

        whosts = cluster.worker_hosts
        ahosts = cluster.aggregator_hosts
        transport = self.cluster.transport
        # One receiving channel per endpoint; a second send-only channel
        # shares the endpoint so down-phase traffic carries the down
        # flow label (flow labels are fixed per channel).
        w_up = [
            SegmentedChannel(
                transport.endpoint(whosts[w], f"{prefix}.w{w}"),
                up_flow,
                self.segment_bytes,
            )
            for w in range(workers)
        ]
        w_down = [
            SegmentedChannel(ch.endpoint, down_flow, self.segment_bytes)
            for ch in w_up
        ]
        a_up = [
            SegmentedChannel(
                transport.endpoint(ahosts[j], f"{prefix}.a{j}"),
                up_flow,
                self.segment_bytes,
            )
            for j in range(aggs)
        ]
        a_down = [
            SegmentedChannel(ch.endpoint, down_flow, self.segment_bytes)
            for ch in a_up
        ]

        racks = plan.racks
        leaders = plan.leaders

        def worker_proc(w: int):
            if delays[w] > 0:
                yield sim.timeout(delays[w])
            r = plan.rack_of[w]
            leader = leaders[r]
            if w != leader:
                w_up[w].send(
                    whosts[leader],
                    f"{prefix}.w{leader}",
                    ("up1", w),
                    None,
                    int(plan.up1_nbytes[w]),
                )
                yield from w_up[w].recv(("down2", w))
                return
            lo, hi = racks[r]
            waiting = {("up1", m) for m in range(lo + 1, hi)}
            while waiting:
                tag, _ = yield from w_up[w].recv_any(waiting)
                waiting.discard(tag)
            yield sim.timeout(float(plan.rack_reduce_s[r]))
            for j in range(aggs):
                w_up[w].send(
                    ahosts[j],
                    f"{prefix}.a{j}",
                    ("up2", r),
                    None,
                    int(plan.up2_nbytes[r, j]),
                )
            waiting = {("down1", j) for j in range(aggs)}
            while waiting:
                tag, _ = yield from w_up[w].recv_any(waiting)
                waiting.discard(tag)
            for m in range(lo + 1, hi):
                w_down[w].send(
                    whosts[m],
                    f"{prefix}.w{m}",
                    ("down2", m),
                    None,
                    plan.down2_nbytes,
                )

        def agg_proc(j: int):
            waiting = {("up2", r) for r in range(len(racks))}
            while waiting:
                tag, _ = yield from a_up[j].recv_any(waiting)
                waiting.discard(tag)
            yield sim.timeout(float(plan.agg_reduce_s[j]))
            for r, leader in enumerate(leaders):
                a_down[j].send(
                    whosts[leader],
                    f"{prefix}.w{leader}",
                    ("down1", j),
                    None,
                    int(plan.down1_nbytes[j]),
                )

        processes = [
            sim.spawn(worker_proc(w), name=f"{prefix}-w{w}")
            for w in range(workers)
        ]
        processes.extend(
            sim.spawn(agg_proc(j), name=f"{prefix}-a{j}") for j in range(aggs)
        )

        def waits():
            yield sim.all_of(processes)

        return PendingCollective(
            sim,
            waits,
            lambda: run.finish(
                outputs,
                rounds=4,
                downward_bytes=run.snapshot.flow_bytes(down_flow),
                **self._details(plan),
            ),
            name=prefix,
        )


class FlowRackHierarchical(RackHierarchicalOmniReduce):
    """The same protocol, replayed analytically (flow mode).

    Every NIC-stage booking of the packet engine is reproduced with the
    chain helpers in the packet kernel's processing order; shared
    topology pipes are booked through the *same* ``traverse_core`` calls
    in global send-call order (ties broken the way the event queue
    breaks them: insertion order, i.e. rack / aggregator index).  Wire
    counters and tensors come from the shared plan, so only completion
    times carry the engine tolerance.
    """

    def begin(
        self,
        tensors: Sequence[np.ndarray],
        worker_start_delays: Optional[Sequence[float]] = None,
    ) -> PendingCollective:
        cluster = getattr(self.cluster, "flow_base", self.cluster)
        sim = cluster.sim
        network = cluster.network
        transport = getattr(cluster.transport, "inner", cluster.transport)
        require_flow_capable(network, transport)
        faults = getattr(cluster, "faults", None)
        if faults is not None and getattr(faults, "aggregator_crashes", ()):
            raise FlowUnsupported(
                "aggregator crash/restart orchestration interrupts protocol "
                "processes mid-round; use packet mode"
            )

        flats = validate_equal_tensors(cluster, tensors)
        workers = cluster.spec.workers
        aggs = len(cluster.aggregator_hosts)
        delays = self._start_delays(cluster, worker_start_delays)
        plan = _plan(
            flats,
            aggs,
            self.rack_size,
            self.block_size,
            self.features.zero_block_suppression,
        )
        outputs = [plan.output.copy() for _ in range(workers)]

        prefix = fresh_prefix("rh")
        up_flow = f"{prefix}.up"
        down_flow = f"{prefix}.down"
        run = MeasuredRun(self.cluster, up_flow)
        start = sim.now

        whosts = cluster.worker_hosts
        ahosts = cluster.aggregator_hosts
        # Hosts are distinct (colocated shards are refused), so worker w
        # is row w and aggregator j row workers + j.
        ledger = HostLedger(network, list(whosts) + list(ahosts))
        send_chain, recv_chain = ledger.send_chain, ledger.recv_chain
        topology = network.topology
        latency = network.latency_s
        seg_cap = min(self.segment_bytes, transport.max_payload_bytes())
        wire = transport.wire_bytes
        up_bytes = 0
        down_bytes = 0

        racks = plan.racks
        leaders = plan.leaders
        nracks = len(racks)
        s = np.asarray(delays, dtype=np.float64) + start

        # Segment framing repeats across messages (payloads are all
        # ``seg_cap`` except the tail), so wire sizes are one np.full
        # plus a tail lookup, memoized by message size.  Callers treat
        # the cached arrays as read-only.
        wire_full = float(wire(seg_cap))
        _wire_cache: dict = {}
        def wire_sizes(nbytes: int) -> np.ndarray:
            sz = _wire_cache.get(nbytes)
            if sz is None:
                n = max(1, nbytes)
                nseg = -(-n // seg_cap)
                sz = np.full(nseg, wire_full)
                sz[-1] = float(wire(n - (nseg - 1) * seg_cap))
                _wire_cache[nbytes] = sz
            return sz

        # ---- up1: members -> leader, intra-rack --------------------------
        T = np.empty(nracks)
        for r, (lo, hi) in enumerate(racks):
            leader = leaders[r]
            members = sorted(range(lo + 1, hi), key=lambda m: (s[m], m))
            arrivals: List[np.ndarray] = []
            sizes_l: List[np.ndarray] = []
            ends: List[int] = []  # index of each message's last segment
            pos = 0
            for m in members:
                sz = wire_sizes(int(plan.up1_nbytes[m]))
                done = send_chain(m, s[m], sz)
                arrivals.append(done + latency)
                sizes_l.append(sz)
                pos += sz.size
                ends.append(pos - 1)
                up_bytes += int(sz.sum())
            if members:
                deliver, _ = recv_chain(
                    leader, np.concatenate(arrivals), np.concatenate(sizes_l)
                )
                fanin = max(float(deliver[ends].max()), s[leader])
            else:
                fanin = s[leader]
            T[r] = fanin + float(plan.rack_reduce_s[r])

        # ---- up2: leaders -> aggregators, cross-rack ---------------------
        agg_arr: List[List[np.ndarray]] = [[] for _ in range(aggs)]
        agg_sz: List[List[np.ndarray]] = [[] for _ in range(aggs)]
        for r in np.argsort(T, kind="stable"):
            leader = leaders[r]
            per_msg = [wire_sizes(int(plan.up2_nbytes[r, j])) for j in range(aggs)]
            done = send_chain(leader, T[r], np.concatenate(per_msg))
            up_bytes += int(sum(int(sz.sum()) for sz in per_msg))
            k = 0
            for j in range(aggs):
                sz = per_msg[j]
                core = done[k : k + sz.size]
                if topology is not None:
                    core = topology.traverse_core_chain(
                        core, whosts[leader], ahosts[j], sz
                    )
                agg_arr[j].append(core + latency)
                agg_sz[j].append(sz)
                k += sz.size

        U = np.empty(aggs)
        for j in range(aggs):
            sizes_all = np.concatenate(agg_sz[j])
            deliver, _ = recv_chain(
                workers + j, np.concatenate(agg_arr[j]), sizes_all
            )
            ends_j = np.cumsum([sz.size for sz in agg_sz[j]]) - 1
            U[j] = float(deliver[ends_j].max()) + float(plan.agg_reduce_s[j])

        # ---- down1: aggregators -> leaders, cross-rack -------------------
        lead_arr: List[List[np.ndarray]] = [[] for _ in range(nracks)]
        lead_sz: List[List[np.ndarray]] = [[] for _ in range(nracks)]
        for j in np.argsort(U, kind="stable"):
            sz1 = wire_sizes(int(plan.down1_nbytes[j]))
            done = send_chain(
                workers + j, U[j], np.tile(sz1, nracks)
            )
            down_bytes += int(sz1.sum()) * nracks
            for r in range(nracks):
                core = done[r * sz1.size : (r + 1) * sz1.size]
                if topology is not None:
                    core = topology.traverse_core_chain(
                        core, ahosts[j], whosts[leaders[r]], sz1
                    )
                lead_arr[r].append(core + latency)
                lead_sz[r].append(sz1)

        V = np.empty(nracks)
        for r in range(nracks):
            deliver, _ = recv_chain(
                leaders[r], np.concatenate(lead_arr[r]), np.concatenate(lead_sz[r])
            )
            ends_r = np.cumsum([sz.size for sz in lead_sz[r]]) - 1
            V[r] = float(deliver[ends_r].max())

        # ---- down2: leaders -> members, intra-rack -----------------------
        end_time = float(V.max()) if nracks else start
        sz2 = wire_sizes(plan.down2_nbytes)
        for r, (lo, hi) in enumerate(racks):
            members = list(range(lo + 1, hi))
            if not members:
                continue
            done = send_chain(leaders[r], V[r], np.tile(sz2, len(members)))
            down_bytes += int(sz2.sum()) * len(members)
            for i, m in enumerate(members):
                arr = done[i * sz2.size : (i + 1) * sz2.size] + latency
                deliver, _ = recv_chain(m, arr, sz2)
                end_time = max(end_time, float(deliver[-1]))

        ledger.commit({up_flow: up_bytes, down_flow: down_bytes})

        def waits():
            yield sim.timeout(max(0.0, end_time - sim.now))

        return PendingCollective(
            sim,
            waits,
            lambda: run.finish(
                outputs,
                rounds=4,
                downward_bytes=run.snapshot.flow_bytes(down_flow),
                **self._details(plan),
            ),
            name=prefix,
        )
