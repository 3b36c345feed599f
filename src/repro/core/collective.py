"""The OmniReduce collective: wiring workers and aggregator slots.

:class:`OmniReduce` materializes the protocol on a
:class:`~repro.netsim.cluster.Cluster`: it partitions the block space
across aggregator shards and streams, spawns one worker process per
(worker, stream) and one slot process per stream, runs the simulation to
completion, and reports both the numerically exact AllReduce output and
the simulated timing/traffic statistics.

§7's generalized collectives are provided as wrappers: AllGather is a
sparse AllReduce with no block overlap, Broadcast one where only the
root contributes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..faults.models import FaultEvent, StalenessReport
from ..netsim.cluster import Cluster
from ..netsim.transport import DatagramTransport
from ..telemetry.collect import TrafficSnapshot
from ..telemetry.spans import NULL_RECORDER
from ..tensors.bitmap import V100_BITMAP_MODEL, BitmapCostModel
from ..tensors.blocks import BlockView, num_blocks
from .aggregator import RecoverySlotAggregator, SlotAggregator
from .config import MAX_STREAMS, OmniReduceConfig
from .messages import VALUE_BYTES
from .partition import FusionLayout, fusion_width, plan_streams
from .pending import PendingCollective
from .prefetch import CopyEngine, PrefetchSchedule
from .worker import RecoveryStreamWorker, StreamWorker

__all__ = ["OmniReduce", "CollectiveResult"]

#: Default RDMA/TCP message payload: slots work at message granularity (§5).
DEFAULT_MESSAGE_BYTES = 16384

_operation_ids = itertools.count()


class _ShiftedReadiness:
    """Adapter shifting a (relative) readiness schedule to absolute
    simulation time."""

    def __init__(self, inner, offset_s: float) -> None:
        self._inner = inner
        self._offset = offset_s
        if hasattr(inner, "total_bytes"):
            self.total_bytes = inner.total_bytes

    def available_at(self, end_offset: int) -> float:
        return self._inner.available_at(end_offset) + self._offset


@dataclass
class CollectiveResult:
    """Outcome of one collective operation.

    ``outputs[w]`` is worker ``w``'s result tensor (all equal for
    AllReduce).  Timing fields are simulated seconds; traffic fields are
    wire bytes including protocol headers.

    The fault/recovery fields are uniform across every algorithm in the
    registry: algorithms without loss recovery or fault handling report
    zeros.  ``complete`` is false only when a configured deadline
    expired first, in which case ``staleness`` describes exactly what is
    missing from the partial result and ``fault_events`` records each
    injected fault with its recovery latency.
    """

    outputs: List[np.ndarray]
    time_s: float
    bytes_sent: int
    packets_sent: int
    upward_bytes: int
    downward_bytes: int
    rounds: int
    retransmissions: int
    duplicates: int
    timeouts_fired: int = 0
    recovery_events: int = 0
    complete: bool = True
    fault_events: List[FaultEvent] = field(default_factory=list)
    staleness: Optional[StalenessReport] = None
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def output(self) -> np.ndarray:
        """The reduced tensor (workers agree for AllReduce)."""
        return self.outputs[0]

    def goodput_gbps(self) -> float:
        """Payload goodput: reduced bytes per worker over completion time."""
        if self.time_s <= 0:
            return float("inf")
        return self.outputs[0].nbytes * 8.0 / self.time_s / 1e9


class OmniReduce:
    """OmniReduce collective operations over a simulated cluster."""

    #: Algorithm label used when the engine records itself into an
    #: attached telemetry (wrappers like SwitchML* override it).
    telemetry_label = "omnireduce"

    def __init__(
        self,
        cluster: Cluster,
        config: Optional[OmniReduceConfig] = None,
        bitmap_model: BitmapCostModel = V100_BITMAP_MODEL,
    ) -> None:
        self.cluster = cluster
        self.config = config or OmniReduceConfig()
        self.bitmap_model = bitmap_model

    # -- public API --------------------------------------------------------

    def allreduce(
        self,
        tensors: Sequence[np.ndarray],
        worker_start_delays: Optional[Sequence[float]] = None,
        gradient_readiness: Optional[Sequence] = None,
    ) -> CollectiveResult:
        """Sum-reduce (by default) the workers' tensors; everyone gets
        the result.  ``tensors[w]`` is worker ``w``'s input.

        ``worker_start_delays[w]`` injects compute skew: worker ``w``
        joins the collective that many seconds late (stragglers).  The
        self-clocked protocol tolerates any skew -- a slot's round simply
        waits for its slowest contributor.

        ``gradient_readiness[w]`` models compute/communication overlap
        (§5: aggregation runs "whenever a part of the gradient is
        ready"): an object with ``available_at(byte_offset)`` -- e.g.
        :class:`~repro.core.prefetch.LinearReadiness` for a backward pass
        producing gradients back to front -- gates when each block may be
        transmitted.  Readiness times are relative to the collective's
        start.
        """
        tensors = self._validate_allreduce(
            tensors, worker_start_delays, gradient_readiness
        )
        return self._run(tensors, worker_start_delays, gradient_readiness)

    def begin_allreduce(
        self,
        tensors: Sequence[np.ndarray],
        worker_start_delays: Optional[Sequence[float]] = None,
        gradient_readiness: Optional[Sequence] = None,
    ) -> PendingCollective:
        """Non-blocking :meth:`allreduce`: spawn the protocol processes
        and return the pending operation without driving the clock.

        Unlike the synchronous path this opens no telemetry frame -- an
        in-flight operation's recording belongs to whoever drives it
        (:class:`~repro.baselines.api.Session` or the multi-job service).
        """
        tensors = self._validate_allreduce(
            tensors, worker_start_delays, gradient_readiness
        )
        return self._begin_impl(tensors, worker_start_delays, gradient_readiness)

    def allreduce_bucket(
        self, buckets: Sequence[Sequence[np.ndarray]]
    ) -> CollectiveResult:
        """DDP-style bucketed AllReduce: reduce a *list* of tensors (e.g.
        one gradient per layer) as a single fused flat collective.

        ``buckets[w]`` is worker ``w``'s list; shapes must agree across
        workers position by position.  The returned result carries
        ``bucket_outputs`` -- per-worker lists of reduced tensors in the
        original shapes -- alongside the usual flat ``outputs``.
        """
        if len(buckets) != self.cluster.spec.workers:
            raise ValueError("need exactly one bucket per worker")
        if not buckets[0]:
            raise ValueError("buckets must contain at least one tensor")
        shapes = [np.asarray(t).shape for t in buckets[0]]
        for w, bucket in enumerate(buckets):
            if [np.asarray(t).shape for t in bucket] != shapes:
                raise ValueError(f"worker {w}'s bucket shapes differ from worker 0's")
        flats = [
            np.concatenate([np.asarray(t, dtype=np.float32).reshape(-1) for t in bucket])
            for bucket in buckets
        ]
        result = self._run(flats)
        sizes = [int(np.prod(shape)) if shape else 1 for shape in shapes]
        offsets = np.cumsum([0] + sizes)
        result.bucket_outputs = [  # type: ignore[attr-defined]
            [
                output[offsets[i] : offsets[i + 1]].reshape(shapes[i])
                for i in range(len(shapes))
            ]
            for output in result.outputs
        ]
        return result

    def allgather(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        """Concatenate the workers' tensors at every worker (§7).

        Realized as a sparse AllReduce with no block overlap: worker
        ``w`` contributes its tensor at segment ``w`` of the output and
        zeros elsewhere, so only its own segment's blocks are non-zero
        and no zero padding is ever transmitted.
        """
        return self._run(self._pad_allgather(tensors))

    def begin_allgather(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        """Non-blocking :meth:`allgather` (no telemetry frame)."""
        return self._begin_impl(self._pad_allgather(tensors))

    def broadcast(self, tensor: np.ndarray, root: int = 0) -> CollectiveResult:
        """Distribute ``tensor`` from ``root`` to every worker (§7):
        an AllReduce where the other ``N-1`` contributions are empty."""
        return self._run(self._pad_broadcast(tensor, root))

    def begin_broadcast(self, tensor: np.ndarray, root: int = 0) -> PendingCollective:
        """Non-blocking :meth:`broadcast` (no telemetry frame)."""
        return self._begin_impl(self._pad_broadcast(tensor, root))

    # -- internals ----------------------------------------------------------

    def _pad_allgather(self, tensors: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(tensors) != self.cluster.spec.workers:
            raise ValueError("need exactly one tensor per worker")
        flats = [np.ascontiguousarray(t).reshape(-1) for t in tensors]
        sizes = [f.size for f in flats]
        total = sum(sizes)
        offsets = np.cumsum([0] + sizes[:-1])
        padded = []
        for flat, offset in zip(flats, offsets):
            contribution = np.zeros(total, dtype=np.float32)
            contribution[offset : offset + flat.size] = flat
            padded.append(contribution)
        return padded

    def _pad_broadcast(self, tensor: np.ndarray, root: int) -> List[np.ndarray]:
        workers = self.cluster.spec.workers
        if not 0 <= root < workers:
            raise ValueError(f"root {root} out of range for {workers} workers")
        flat = np.ascontiguousarray(tensor).reshape(-1).astype(np.float32)
        return [
            flat.copy() if w == root else np.zeros(flat.size, dtype=np.float32)
            for w in range(workers)
        ]

    def _validate_allreduce(
        self,
        tensors: Sequence[np.ndarray],
        worker_start_delays: Optional[Sequence[float]],
        gradient_readiness: Optional[Sequence],
    ) -> List[np.ndarray]:
        tensors = self._validate_inputs(tensors)
        if worker_start_delays is not None:
            if len(worker_start_delays) != self.cluster.spec.workers:
                raise ValueError("need one start delay per worker")
            if any(d < 0 for d in worker_start_delays):
                raise ValueError("start delays must be non-negative")
        if gradient_readiness is not None and len(gradient_readiness) != (
            self.cluster.spec.workers
        ):
            raise ValueError("need one readiness schedule per worker")
        return tensors

    def _validate_inputs(self, tensors: Sequence[np.ndarray]) -> List[np.ndarray]:
        if len(tensors) != self.cluster.spec.workers:
            raise ValueError(
                f"expected {self.cluster.spec.workers} tensors, got {len(tensors)}"
            )
        flats = [np.ascontiguousarray(t).reshape(-1) for t in tensors]
        size = flats[0].size
        if size == 0:
            raise ValueError("cannot reduce empty tensors")
        if any(f.size != size for f in flats):
            raise ValueError("all workers must supply tensors of equal length")
        return flats

    def _use_recovery(self) -> bool:
        if self.config.recovery is not None:
            return self.config.recovery
        if isinstance(self.cluster.transport, DatagramTransport):
            return True
        # Auto-engage Algorithm 2 whenever an active fault plan is
        # attached, whatever the loss model's shape (bursty, windowed,
        # per-link) -- the fixed-transport check above only covers the
        # paper's uniform-loss DPDK scenario.
        faults = getattr(self.cluster, "faults", None)
        return faults is not None and faults.active()

    def _payload_budget(self) -> int:
        """Target payload per packet, clamped to the transport's limit
        (a datagram transport cannot carry more than one MTU)."""
        limit = self.cluster.transport.max_payload_bytes()
        if self.config.message_bytes is not None:
            return min(self.config.message_bytes, limit)
        if isinstance(self.cluster.transport, DatagramTransport):
            return limit
        return min(DEFAULT_MESSAGE_BYTES, limit)

    def _plan_run(
        self,
        cluster: Cluster,
        total_elements: int,
        worker_start_delays: Optional[Sequence[float]],
    ):
        """Derive one run's set-up from the config, features and cluster.

        The single owner of everything both flat engines (this one and
        :class:`~repro.core.flowreduce.FlowOmniReduce`) must agree on
        before any protocol work starts: the operation prefix and start
        time, the bitmap charge, per-worker start delays with injected
        straggler delay folded in, the host-to-NIC prefetch schedules,
        the fusion width and the stream plan.  Returns ``(prefix,
        start, bitmap_delay, start_delays, prefetches, width, plan)``.
        """
        spec = cluster.spec
        config = self.config
        features = config.features
        prefix = f"or{next(_operation_ids)}"
        start = cluster.sim.now

        bitmap_delay = 0.0
        if config.charge_bitmap:
            bitmap_delay = self.bitmap_model.time_s(total_elements, config.block_size)

        start_delays = (
            list(worker_start_delays)
            if worker_start_delays is not None
            else [0.0] * spec.workers
        )
        faults = getattr(cluster, "faults", None)
        if faults is not None:
            for worker_id in range(spec.workers):
                start_delays[worker_id] += faults.worker_delay_s(worker_id)

        tensor_bytes = total_elements * VALUE_BYTES
        # Chunk-prefetch ablated: the whole tensor must be host-resident
        # before the first byte leaves.
        chunking = (
            {} if features.chunk_prefetch else {"chunk_bytes": max(1, tensor_bytes)}
        )
        prefetches: List[Optional[PrefetchSchedule]] = [
            None
            if spec.gdr
            else PrefetchSchedule(
                tensor_bytes,
                spec.pcie_gbps * 1e9,
                start_s=start + bitmap_delay + start_delays[worker_id],
                **chunking,
            )
            for worker_id in range(spec.workers)
        ]

        width = fusion_width(
            config.block_size, VALUE_BYTES, self._payload_budget(), features.fusion
        )
        plan = plan_streams(
            num_blocks(total_elements, config.block_size),
            spec.num_shards,
            config.effective_streams_per_shard,
        )
        if len(plan) > MAX_STREAMS:
            raise ValueError(
                f"{len(plan)} streams exceed the 12-bit slot id space of §5 "
                f"({MAX_STREAMS}); lower streams_per_shard or the shard count"
            )
        return prefix, start, bitmap_delay, start_delays, prefetches, width, plan

    def _run_details(
        self,
        extra: Dict[str, float],
        bitmap_delay: float,
        width: int,
        streams: int,
        recovery: bool,
    ) -> Dict[str, float]:
        """The ``details`` both flat engines report: the engine's
        ``extra`` entries, then the run set-up every OmniReduce run
        shares."""
        return {
            **extra,
            "bitmap_delay_s": bitmap_delay,
            "fusion_width": width,
            "streams": streams,
            "recovery": float(recovery),
            # Aggregator state is the slot pool: one (or two, with
            # recovery's versioning) block-sized accumulators per lane
            # per stream -- independent of both tensor size and worker
            # count, the §3 space-complexity claim.
            "aggregator_pool_bytes": float(
                streams
                * width
                * self.config.block_size
                * VALUE_BYTES
                * (2 if recovery else 1)
            ),
        }

    def _run(
        self,
        tensors: List[np.ndarray],
        worker_start_delays: Optional[Sequence[float]] = None,
        gradient_readiness: Optional[Sequence] = None,
    ) -> CollectiveResult:
        """Telemetry boundary around the engine proper.

        The engine is reachable both directly (``OmniReduce(...).allreduce``)
        and through a :class:`~repro.baselines.api.Session`; the
        telemetry's re-entrancy guard ensures exactly one frame records
        the run whichever path was taken.
        """
        telemetry = getattr(self.cluster, "telemetry", None)
        if telemetry is None:
            return self._run_impl(tensors, worker_start_delays, gradient_readiness)
        with telemetry.collective(
            self.telemetry_label,
            self.cluster,
            features=self.config.features,
        ) as op:
            result = self._run_impl(
                tensors, worker_start_delays, gradient_readiness
            )
            if op is not None:
                op.result = result
            return result

    def _run_impl(
        self,
        tensors: List[np.ndarray],
        worker_start_delays: Optional[Sequence[float]] = None,
        gradient_readiness: Optional[Sequence] = None,
    ) -> CollectiveResult:
        return self._begin_impl(
            tensors, worker_start_delays, gradient_readiness
        ).wait()

    def _begin_impl(
        self,
        tensors: List[np.ndarray],
        worker_start_delays: Optional[Sequence[float]] = None,
        gradient_readiness: Optional[Sequence] = None,
    ) -> PendingCollective:
        spec = self.cluster.spec
        config = self.config
        features = config.features
        sim = self.cluster.sim
        transport = self.cluster.transport
        prefix, start, bitmap_delay, start_delays, prefetches, width, plan = (
            self._plan_run(self.cluster, tensors[0].size, worker_start_delays)
        )

        outputs = [t.astype(np.float32, copy=True) for t in tensors]
        views = [BlockView(out, config.block_size) for out in outputs]

        faults = getattr(self.cluster, "faults", None)
        crashes = []
        if faults is not None:
            for crash in faults.aggregator_crashes:
                if crash.shard >= spec.num_shards:
                    raise ValueError(
                        f"crash targets shard {crash.shard}, but the cluster "
                        f"has only {spec.num_shards} shards"
                    )
                if (
                    crash.failover_shard is not None
                    and crash.failover_shard >= spec.num_shards
                ):
                    raise ValueError(
                        f"failover shard {crash.failover_shard} out of range"
                    )
                crashes.append(crash)
        readiness_schedules: List[Optional[_ShiftedReadiness]] = []
        for worker_id in range(spec.workers):
            if gradient_readiness is None:
                readiness_schedules.append(None)
            else:
                readiness_schedules.append(
                    _ShiftedReadiness(
                        gradient_readiness[worker_id],
                        start + start_delays[worker_id],
                    )
                )

        down_engines: List[Optional[CopyEngine]] = [
            None if spec.gdr else CopyEngine(spec.pcie_gbps * 1e9)
            for _ in range(spec.workers)
        ]
        recovery = self._use_recovery()
        telemetry = getattr(self.cluster, "telemetry", None)
        recorder = telemetry.recorder if telemetry is not None else NULL_RECORDER

        snapshot = TrafficSnapshot(self.cluster)

        # Crash recovery re-executes streams from scratch, and workers
        # must then re-read contributions that the first execution may
        # already have overwritten with results (outputs alias the
        # contribution tensors).  Only crash-capable runs pay the copy.
        contrib_views: List[Optional[BlockView]]
        if crashes:
            contrib_views = [
                BlockView(out.copy(), config.block_size) for out in outputs
            ]
        else:
            contrib_views = [None] * spec.workers

        slot_cls = RecoverySlotAggregator if recovery else SlotAggregator
        worker_processes = []  # generation-0 procs, the primary wait set
        slots = []  # every slot ever spawned (stats aggregation)
        stream_workers = []  # every worker engine ever spawned (stats)
        layouts: Dict[int, List[FusionLayout]] = {}  # stream -> per-worker
        stream_infos: List[dict] = []

        def build_stream(stream_range, agg_host: str, generation: int):
            """Spawn one stream's slot + workers; reused by respawns."""
            suffix = "" if generation == 0 else f"r{generation}"
            slot = slot_cls(
                sim,
                transport,
                prefix,
                stream_range,
                width,
                spec.workers,
                self.cluster.worker_hosts,
                agg_host,
                block_size=config.block_size,
                reduction=config.reduction,
                deterministic=config.deterministic,
                port_suffix=suffix,
                recorder=recorder,
            )
            slots.append(slot)
            slot_proc = sim.spawn(
                slot.run(), name=f"{prefix}-slot{slot.stream}{suffix}"
            )
            workers = []
            procs = []
            for worker_id in range(spec.workers):
                common = dict(
                    sim=sim,
                    transport=transport,
                    prefix=prefix,
                    worker_id=worker_id,
                    worker_host=self.cluster.worker_hosts[worker_id],
                    agg_host=agg_host,
                    layout=layouts[stream_range.stream][worker_id],
                    view=views[worker_id],
                    prefetch=prefetches[worker_id],
                    down_engine=down_engines[worker_id],
                    # Respawned generations start immediately: the bitmap
                    # charge and any straggler delay already elapsed.
                    start_delay_s=(
                        bitmap_delay + start_delays[worker_id]
                        if generation == 0
                        else 0.0
                    ),
                    reduction=config.reduction,
                    readiness=readiness_schedules[worker_id],
                    contrib_view=contrib_views[worker_id],
                    port_suffix=suffix,
                    recorder=recorder,
                )
                if recovery:
                    worker = RecoveryStreamWorker(
                        timeout_s=config.timeout_s,
                        backoff_factor=features.backoff_factor,
                        timeout_max_s=config.timeout_max_s,
                        **common,
                    )
                else:
                    worker = StreamWorker(**common)
                stream_workers.append(worker)
                workers.append(worker)
                procs.append(
                    sim.spawn(
                        worker.run(),
                        name=f"{prefix}-w{worker_id}s{slot.stream}{suffix}",
                    )
                )
            return slot, slot_proc, workers, procs

        for stream_range in plan:
            layouts[stream_range.stream] = [
                FusionLayout(
                    contrib_views[worker_id]
                    if contrib_views[worker_id] is not None
                    else views[worker_id],
                    stream_range,
                    width,
                    assume_dense=not features.zero_block_suppression,
                    lookahead=features.lookahead,
                )
                for worker_id in range(spec.workers)
            ]
            agg_host = self.cluster.aggregator_hosts[stream_range.shard]
            slot, slot_proc, workers, procs = build_stream(stream_range, agg_host, 0)
            worker_processes.extend(procs)
            stream_infos.append(
                {
                    "range": stream_range,
                    "shard": stream_range.shard,
                    "slot_proc": slot_proc,
                    "workers": workers,
                    "procs": procs,
                    "generation": 0,
                }
            )

        # -- fault orchestration ------------------------------------------
        fault_events: List[FaultEvent] = []
        fault_handles = []  # cancellable crash/restart callbacks
        respawn_signals = []  # fire once a scheduled restart has respawned
        event_workers = []  # (event, respawned worker engines) pairs
        extra_procs = []  # worker procs of respawned generations
        halted = [False]
        expired_at = [0.0]

        def _stream_finished(info) -> bool:
            return all(p.triggered for p in info["procs"])

        def _do_restart(crash, affected, event, signal):
            if halted[0]:
                signal.succeed()
                return
            event.restart_s = sim.now
            self.cluster.fault_log.record(
                sim.now, "aggregator-restart", shard=event.shard
            )
            respawned = []
            for info in affected:
                info["generation"] += 1
                if crash.failover_shard is not None:
                    info["shard"] = crash.failover_shard
                agg_host = self.cluster.aggregator_hosts[info["shard"]]
                _slot, slot_proc, workers, procs = build_stream(
                    info["range"], agg_host, info["generation"]
                )
                info["slot_proc"] = slot_proc
                info["workers"] = workers
                info["procs"] = procs
                extra_procs.extend(procs)
                respawned.extend(workers)
            if respawned:
                event_workers.append((event, respawned))
            else:
                event.recovered_s = sim.now
            signal.succeed()

        def _do_crash(crash):
            if halted[0]:
                return
            affected = [
                info
                for info in stream_infos
                if info["shard"] == crash.shard and not _stream_finished(info)
            ]
            event = FaultEvent(
                kind="aggregator-crash",
                time_s=sim.now,
                shard=crash.shard,
                failover_shard=crash.failover_shard,
                streams=tuple(info["range"].stream for info in affected),
            )
            fault_events.append(event)
            self.cluster.fault_log.record(
                sim.now,
                "aggregator-crash",
                shard=crash.shard,
                streams=float(len(affected)),
            )
            for info in affected:
                info["slot_proc"].interrupt("aggregator-crash")
                for proc in info["procs"]:
                    proc.interrupt("aggregator-crash")
            signal = sim.signal()
            respawn_signals.append(signal)
            fault_handles.append(
                sim.call_after(
                    crash.restart_delay_s, _do_restart, crash, affected, event, signal
                )
            )

        for crash in crashes:
            fault_handles.append(sim.call_at(start + crash.time_s, _do_crash, crash))

        deadline_handle = None
        if config.deadline_s is not None:

            def _expire() -> None:
                halted[0] = True
                expired_at[0] = sim.now
                for handle in fault_handles:
                    sim.cancel(handle)
                self.cluster.fault_log.record(
                    sim.now, "deadline-expired", deadline_s=config.deadline_s
                )
                for info in stream_infos:
                    if _stream_finished(info):
                        continue
                    info["slot_proc"].interrupt("deadline")
                    for proc in info["procs"]:
                        proc.interrupt("deadline")

            deadline_handle = sim.call_at(start + config.deadline_s, _expire)

        def waits():
            yield sim.all_of(worker_processes)
            # Drain recovery work: respawned generations must finish too,
            # and a crash's restart may still be pending when generation 0
            # ends.
            while True:
                pending = [p for p in extra_procs if not p.triggered]
                if pending:
                    yield sim.all_of(pending)
                    continue
                unfired = [s for s in respawn_signals if not s.triggered]
                if unfired and not halted[0]:
                    yield unfired[0]
                    continue
                break
            # The simulator outlives this collective: disarm whatever
            # never fired (late crashes, the deadline).
            for handle in fault_handles:
                sim.cancel(handle)
            if deadline_handle is not None:
                sim.cancel(deadline_handle)

        def finalize() -> CollectiveResult:
            # A crash is recovered once every respawned worker of its
            # affected streams has finished; the recovery timestamp is the
            # last of their finish times.
            for event, workers in event_workers:
                if event.recovered_s is None and all(w.finished for w in workers):
                    event.recovered_s = max(w.stats.finish_s for w in workers)
                    self.cluster.fault_log.record(
                        event.recovered_s, "recovered", shard=event.shard
                    )

            finish = sim.now
            for engine in down_engines:
                if engine is not None:
                    finish = max(finish, engine.free_at)

            staleness = None
            if halted[0]:
                incomplete_streams = []
                incomplete_workers = set()
                pending_blocks = 0
                for info in stream_infos:
                    unfinished = [w for w in info["workers"] if not w.finished]
                    if not unfinished:
                        continue
                    incomplete_streams.append(info["range"].stream)
                    for worker in unfinished:
                        incomplete_workers.add(worker.worker_id)
                        pending_blocks += worker.pending_blocks()
                staleness = StalenessReport(
                    deadline_s=config.deadline_s,
                    expired_at_s=expired_at[0],
                    incomplete_streams=tuple(sorted(incomplete_streams)),
                    incomplete_workers=tuple(sorted(incomplete_workers)),
                    pending_blocks=pending_blocks,
                )

            retransmissions = sum(w.stats.retransmissions for w in stream_workers)
            timeouts_fired = sum(w.stats.timeouts_fired for w in stream_workers)
            duplicates = sum(s.stats.duplicates for s in slots)
            rounds = max((s.stats.rounds for s in slots), default=0)
            details_extra: Dict[str, float] = {}
            # Blocks that never crossed the wire because every value in
            # them was zero: the paper's bandwidth-saving mechanism,
            # derived from the generation-0 layouts (sum over workers and
            # streams).
            if features.zero_block_suppression:
                details_extra["zero_blocks_suppressed"] = float(
                    sum(
                        layout.range.num_blocks - layout.listed_blocks()
                        for per_worker in layouts.values()
                        for layout in per_worker
                    )
                )
            # Worst per-(worker, stream) time spent blocked on results --
            # protocol-level stall, complementing the NIC-derived uniform
            # ``worker_stall_s`` metric.
            details_extra["worker_recv_wait_max_s"] = max(
                (w.stats.stall_s for w in stream_workers), default=0.0
            )
            if fault_events:
                latencies = [
                    e.recovery_latency_s
                    for e in fault_events
                    if e.recovery_latency_s is not None
                ]
                details_extra["recovery_latency_s"] = max(latencies, default=0.0)
            if recovery:
                details_extra["max_backoff_timeout_s"] = max(
                    (
                        w.backoff_timeout_s
                        for w in stream_workers
                        if hasattr(w, "backoff_timeout_s")
                    ),
                    default=config.timeout_s,
                )
            return CollectiveResult(
                outputs=outputs,
                time_s=finish - start,
                bytes_sent=snapshot.bytes_sent(),
                packets_sent=snapshot.packets_sent(),
                upward_bytes=snapshot.flow_bytes(f"{prefix}.up"),
                downward_bytes=snapshot.flow_bytes(f"{prefix}.down"),
                rounds=rounds,
                retransmissions=retransmissions,
                duplicates=duplicates,
                timeouts_fired=timeouts_fired,
                recovery_events=len(fault_events),
                complete=not halted[0],
                fault_events=fault_events,
                staleness=staleness,
                details=self._run_details(
                    details_extra, bitmap_delay, width, len(plan), recovery
                ),
            )

        return PendingCollective(sim, waits, finalize, name=prefix)
