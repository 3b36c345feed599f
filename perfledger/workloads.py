"""The six workloads: what each cell calls, and how its result is checked.

A *cell* is one fixed call (algorithm x transport x input x fault plan);
an *op* is one execution of a cell.  Every cell builds a fresh cluster
per op, so ops never share simulator state and every op of a cell must
report the same simulated statistics.

Inputs come from ``--seed`` through the repo's public generators; the
program only ever receives arrays (and, for the fleet, job specs).  Sizes
are frozen in :data:`SIZES`; ``smoke`` sizes exist for the tests.
"""

from __future__ import annotations

import os
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import (
    AggregatorCrash,
    Cluster,
    ClusterSpec,
    FaultPlan,
    OmniReduceConfig,
    StragglerSchedule,
    prepare,
)
from repro.baselines import OmniReduceOptions
from repro.baselines.api import RackHierarchicalOptions
from repro.conformance.oracle import check_counters, dense_oracle, tolerance_for
from repro.core.flowreduce import TIME_RTOL
from repro.ddl import WORKLOADS as DDL_WORKLOADS
from repro.ddl import GradientModel, TrainingSimulator
from repro.netsim import FatTreeTopology, GilbertElliottLoss, kernel, rack_map_for
from repro.netsim.crosstraffic import CrossTrafficGenerator
from repro.observatory import Observatory, ObservatoryConfig
from repro.service import FabricService, job_mix
from repro.telemetry import Telemetry, TelemetryConfig
from repro.telemetry import runtime as telemetry_runtime
from repro.tensors import block_sparse_tensors, element_sparse_tensor

from . import ROOT

__all__ = ["WORKLOADS", "SIZES", "COUNT_KEYS", "OpResult", "Cell", "Workload"]

#: Frozen sizes.  ``full`` is what BENCHMARK.json measures; ``smoke`` keeps
#: every cell and every code path but shrinks the inputs for the tests.
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "packet-sweep": {
        "full": dict(elements=262_144),
        "smoke": dict(elements=16_384),
    },
    "packet-lossy": {
        "full": dict(elements=262_144),
        "smoke": dict(elements=16_384),
    },
    "flow-flat": {
        "full": dict(workers=1024, elements=32_768, pair_elements=2048),
        "smoke": dict(workers=64, elements=4096, pair_elements=1024),
    },
    "flow-fattree": {
        "full": dict(
            total_elements=1 << 24,
            rows=((1024, 16, 2), (2048, 16, 2), (4096, 32, 4)),
            pair_elements=2048,
        ),
        "smoke": dict(
            total_elements=1 << 18,
            rows=((64, 16, 2), (128, 16, 2), (256, 32, 4)),
            pair_elements=1024,
        ),
    },
    "fleet-observed": {
        "full": dict(jobs=8, elements=16_384, rates=(200.0, 12_800.0)),
        "smoke": dict(jobs=6, elements=4096, rates=(400.0, 25_600.0)),
    },
    "train-step": {
        "full": dict(scale_elements=1 << 18),
        "smoke": dict(scale_elements=1 << 14),
    },
}

#: Exact per-op counts every cell reports (zero where a layer is bypassed).
COUNT_KEYS = (
    "events", "rounds", "retransmissions", "duplicates", "timeouts_fired",
    "drops", "recovery_events", "spans_recorded", "packet_events_recorded",
    "observatory_samples", "observatory_incidents", "jobs_completed",
    "jobs_rejected", "slo_violations",
)


@dataclass
class OpResult:
    """What one op reported.  ``payload`` (the raw result) is kept only on
    the op that gets verified; everything else is scalars."""

    sim_time_s: float
    packets: int
    wire_bytes: int
    counts: Dict[str, int]
    complete: bool
    checksum: int
    extras: Dict[str, float] = field(default_factory=dict)
    payload: object = None
    #: Host wall time of the op and its number among the attempted units:
    #: the harness's own fields, not simulated, not part of the digest.
    wall_s: float = 0.0
    unit: int = 0

    def digest_key(self) -> tuple:
        """Every simulated statistic of the op, exactly."""
        return (
            repr(self.sim_time_s), self.packets, self.wire_bytes,
            tuple(sorted(self.counts.items())), self.complete, self.checksum,
            tuple(sorted((k, repr(v)) for k, v in self.extras.items())),
        )


def _counts(**given: int) -> Dict[str, int]:
    counts = dict.fromkeys(COUNT_KEYS, 0)
    counts.update(given)
    return counts


def _checksum(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).view(np.uint8).reshape(-1))


@dataclass
class Cell:
    """One fixed call.  ``run(rec, cold)`` executes one op under spans from
    ``rec`` and returns whatever the program returned; ``summarize`` reads
    that off into an :class:`OpResult` (outside the op's timed region:
    it is the benchmark's bookkeeping, not the program's work);
    ``verify(result)`` returns (problems, max abs oracle error).
    ``family`` marks OmniReduce-family cells, whose simulated time and
    wire bytes are the modelled system's own results."""

    id: str
    family: bool
    run: Callable[..., object]
    summarize: Callable[[object], OpResult]
    verify: Callable[[OpResult], tuple]


@dataclass
class Workload:
    name: str
    make_cells: Callable[..., List[Cell]]
    #: Checks across the cells of one pass (e.g. taps must not perturb).
    cross_check: Callable[[Dict[str, OpResult]], List[str]] = lambda results: []
    #: Packet-vs-flow pair run once in set-up:
    #: (seed, **sizes) -> (problems, relative time error).
    flow_pair: Optional[Callable[..., tuple]] = None


# ---------------------------------------------------------------------------
# Collective cells (packet-sweep, packet-lossy, flow-flat, flow-fattree)
# ---------------------------------------------------------------------------


def verify_outputs(outputs: Sequence[np.ndarray], tensors: Sequence[np.ndarray]):
    """``repro.conformance.oracle.check_outputs`` in column chunks.

    Same oracle (:func:`dense_oracle`), same tolerance
    (:func:`tolerance_for` scaled by the oracle's largest magnitude),
    same worker-agreement rule -- but the float64 stack is built a slice
    at a time, so checking 1024 workers costs megabytes, not the 2x-input
    footprint that would otherwise set the workload's peak memory.
    """
    problems: List[str] = []
    workers = len(tensors)
    if len(outputs) != workers:
        problems.append(f"expected {workers} output tensors, got {len(outputs)}")
    reference = np.asarray(outputs[0]).reshape(-1)
    for w, output in enumerate(outputs[1:], start=1):
        if output is not outputs[0] and not np.array_equal(outputs[0], output):
            problems.append(f"worker {w} disagrees with worker 0")
            break
    flats = [np.asarray(t).reshape(-1) for t in tensors]
    length = flats[0].size
    if reference.size != length:
        problems.append(f"output length {reference.size} != expected {length}")
        return problems, float("inf")
    chunk = max(1024, (1 << 21) // workers)
    max_err = 0.0
    scale = 1.0
    for lo in range(0, length, chunk):
        expected = dense_oracle([f[lo:lo + chunk] for f in flats])
        got = reference[lo:lo + chunk].astype(np.float64)
        max_err = max(max_err, float(np.abs(got - expected).max()))
        scale = max(scale, float(np.abs(expected).max()))
    atol = tolerance_for(flats[0].dtype, workers) * scale
    if max_err > atol:
        problems.append(f"oracle mismatch: max |err| = {max_err:.3e} > atol {atol:.3e}")
    return problems, max_err


def collective_cell(
    cell_id: str,
    algorithm: str,
    tensors: Sequence[np.ndarray],
    spec: ClusterSpec,
    options=None,
    faults: Optional[Callable[[], FaultPlan]] = None,
    topology: Optional[Callable[[], object]] = None,
    family: bool = False,
    reliable: bool = True,
) -> Cell:
    """A cell that runs ``prepare(algorithm, Cluster(spec), options)
    .allreduce(tensors)``.  Fault plans and topologies carry state (loss
    RNGs, pipe bookings), so each op builds its own from the factory."""

    def run(rec, cold: bool = False):
        events0 = kernel.events_total()
        with rec.span("build", cell_id):
            cluster = Cluster(
                spec,
                topology=topology() if topology else None,
                faults=faults() if faults else None,
            )
        with rec.span("prepare", cell_id):
            session = prepare(algorithm, cluster, options)
        with rec.span("run", cell_id):
            result = session.allreduce(tensors)
        return cluster, result, kernel.events_total() - events0

    def summarize(raw) -> OpResult:
        cluster, result, events = raw
        return OpResult(
            sim_time_s=result.time_s,
            packets=result.packets_sent,
            wire_bytes=result.bytes_sent,
            counts=_counts(
                events=events,
                rounds=result.rounds,
                retransmissions=result.retransmissions,
                duplicates=result.duplicates,
                timeouts_fired=result.timeouts_fired,
                drops=cluster.network.stats.total_packets_dropped,
                recovery_events=result.recovery_events,
            ),
            complete=result.complete,
            checksum=_checksum(result.outputs[0]),
            payload=result,
        )

    def verify(op: OpResult):
        result = op.payload
        problems, max_err = verify_outputs(result.outputs, tensors)
        problems += check_counters(
            result, expect_faultless=faults is None, expect_reliable=reliable
        )
        return problems, max_err

    return Cell(cell_id, family, run, summarize, verify)


_SWEEP_ALGORITHMS = (
    ("omnireduce", "rdma"), ("omnireduce", "dpdk"), ("ring", "tcp"),
    ("sparcml-ssar", "tcp"), ("agsparse", "tcp"), ("parallax", "tcp"),
    ("switchml", "rdma"),
)


def _fabric(transport: str, **kw) -> ClusterSpec:
    return ClusterSpec(
        workers=8, aggregators=8, bandwidth_gbps=10.0, transport=transport, **kw
    )


def packet_sweep(seed: int, elements: int) -> List[Cell]:
    """The figure-6 comparison: OmniReduce next to the baselines it is
    measured against, at three block sparsities, in the packet kernel."""
    cells = []
    for sparsity in (0.0, 0.9, 0.99):
        tensors = block_sparse_tensors(
            8, elements, 256, sparsity, rng=np.random.default_rng(seed)
        )
        for algorithm, transport in _SWEEP_ALGORITHMS:
            cells.append(collective_cell(
                f"{algorithm}/{transport}/s{sparsity:g}", algorithm, tensors,
                _fabric(transport), family=algorithm == "omnireduce",
            ))
    return cells


def packet_lossy(seed: int, elements: int) -> List[Cell]:
    """OmniReduce on the datagram transport under loss and a crash: the
    same kernel/transport/worker layers as packet-sweep, driven through
    per-packet timers, retransmission and respawn."""
    tensors = {
        sparsity: block_sparse_tensors(
            8, elements, 256, sparsity, rng=np.random.default_rng(seed)
        )
        for sparsity in (0.0, 0.9)
    }
    options = OmniReduceOptions(config=OmniReduceConfig(timeout_s=300e-6))

    def gilbert_elliott() -> FaultPlan:
        return FaultPlan(loss=GilbertElliottLoss.from_stationary_rate(
            0.01, mean_burst_packets=4.0, rng=np.random.default_rng(seed)
        ))

    def crash() -> FaultPlan:
        return FaultPlan(aggregator_crashes=(AggregatorCrash(
            shard=0, time_s=50e-6, restart_delay_s=100e-6, failover_shard=1
        ),))

    cells = []
    for rate in (0.001, 0.01):
        for sparsity in (0.0, 0.9):
            cells.append(collective_cell(
                f"bernoulli{rate:g}/s{sparsity:g}", "omnireduce", tensors[sparsity],
                _fabric("dpdk", loss_rate=rate, seed=seed), options,
                family=True, reliable=False,
            ))
    for name, plan in (("gilbert-elliott0.01", gilbert_elliott), ("agg-crash", crash)):
        cells.append(collective_cell(
            f"{name}/s0.9", "omnireduce", tensors[0.9], _fabric("dpdk", seed=seed),
            options, faults=plan, family=True, reliable=False,
        ))
    return cells


def _element_sparse(workers: int, elements: int, sparsity: float, seed: int):
    rng = np.random.default_rng(seed)
    return [element_sparse_tensor(elements, sparsity, rng) for _ in range(workers)]


_FLAT_CONFIG = dict(
    block_size=64, message_bytes=1024, streams_per_shard=1, deterministic=True
)


def _flat_options(sim_mode: str) -> OmniReduceOptions:
    return OmniReduceOptions(config=OmniReduceConfig(**_FLAT_CONFIG), sim_mode=sim_mode)


def flow_flat(seed: int, workers: int, elements: int, **_) -> List[Cell]:
    """Flow-mode OmniReduce at figure-6-flow scale: the flow engine and
    numpy carry the time, the event kernel executes almost nothing."""
    return [
        collective_cell(
            f"omnireduce/flow/e{sparsity:g}", "omnireduce",
            _element_sparse(workers, elements, sparsity, seed),
            ClusterSpec(workers=workers, aggregators=8), _flat_options("flow"),
            family=True,
        )
        for sparsity in (0.9, 0.96, 0.99)
    ]


def _fat_tree(workers: int, rack_size: int, oversub: int) -> FatTreeTopology:
    uplink = rack_size * 10.0 / oversub
    return FatTreeTopology(
        rack_size=rack_size, uplink_gbps=uplink, spine_gbps=4 * uplink, spines=4,
        rack_of=rack_map_for(workers, 8, rack_size),
    )


def _rack_options(sim_mode: str, rack_size: int) -> RackHierarchicalOptions:
    return RackHierarchicalOptions(
        sim_mode=sim_mode, rack_size=rack_size, segment_bytes=256
    )


def flow_fattree(seed: int, total_elements: int, rows, **_) -> List[Cell]:
    """Rack-hierarchical AllReduce on oversubscribed fat trees in flow
    mode: the only workload where rackreduce, shared-pipe booking and
    flow chains carry the time."""
    return [
        collective_cell(
            f"rackhier/flow/w{workers}-r{rack}-o{oversub}", "rackhier",
            _element_sparse(workers, total_elements // workers, 0.9, seed),
            ClusterSpec(workers=workers, aggregators=8),
            _rack_options("flow", rack),
            topology=lambda w=workers, r=rack, o=oversub: _fat_tree(w, r, o),
            family=True,
        )
        for workers, rack, oversub in rows
    ]


def _pair_check(run: Callable[[str], object]):
    """Flow mode against the packet kernel on one small shared input:
    tensors and wire counters must match exactly, completion time within
    the documented ``TIME_RTOL``.  Returns (problems, relative time error)."""
    packet, flow = run("packet"), run("flow")
    problems = []
    if not np.array_equal(packet.outputs[0], flow.outputs[0]):
        problems.append("flow and packet result tensors differ")
    if (packet.bytes_sent, packet.packets_sent) != (flow.bytes_sent, flow.packets_sent):
        problems.append("flow and packet wire counters differ")
    error = abs(flow.time_s - packet.time_s) / packet.time_s
    if error > TIME_RTOL:
        problems.append(f"flow vs packet completion time: {error:.3e} > {TIME_RTOL}")
    return problems, error


def flat_pair(seed: int, pair_elements: int, **_):
    tensors = _element_sparse(64, pair_elements, 0.96, seed)
    return _pair_check(lambda mode: prepare(
        "omnireduce", Cluster(ClusterSpec(workers=64, aggregators=8)),
        _flat_options(mode),
    ).allreduce(tensors))


def fattree_pair(seed: int, pair_elements: int, **_):
    tensors = _element_sparse(64, pair_elements, 0.9, seed)
    return _pair_check(lambda mode: prepare(
        "rackhier",
        Cluster(ClusterSpec(workers=64, aggregators=8), topology=_fat_tree(64, 16, 2)),
        _rack_options(mode, 16),
    ).allreduce(tensors))


# ---------------------------------------------------------------------------
# fleet-observed
# ---------------------------------------------------------------------------

_FLEET_MIX = ("deeplight", "lstm", "bert", "resnet152")
_TAP_INTERVAL_S = 50e-6
_FLEET_SLO_S = 0.010
#: The arrival pattern is part of the workload, not of the seed: whether a
#: job is queued or rejected at saturation depends on it, and a benchmark
#: whose amount of work changes with the seed cannot be compared across
#: seeds.  ``--seed`` drives every job's gradients and the cross-traffic.
_ARRIVAL_SEED = 1003


def fleet_cell(cell_id: str, seed: int, rate: float, taps: bool, jobs: int, elements: int) -> Cell:
    specs = job_mix(
        jobs, workloads=_FLEET_MIX, workers=3, aggregators=3, iterations=1,
        elements=elements, compute_scale=0.002, slo_s=_FLEET_SLO_S, seed=seed,
    )
    gaps = np.random.default_rng(_ARRIVAL_SEED).exponential(1.0 / rate, size=jobs)
    arrivals = [float(t) for t in np.cumsum(gaps)]

    def run(rec, cold: bool = False):
        events0 = kernel.events_total()
        with rec.span("build", cell_id):
            cluster = Cluster(
                _fabric("rdma"),
                faults=FaultPlan(stragglers=(StragglerSchedule(worker=7, slowdown=1.25),)),
            )
            telemetry = observatory = None
            if taps:
                telemetry = Telemetry(TelemetryConfig(
                    record_spans=True, record_packets=True,
                    sample_interval_s=_TAP_INTERVAL_S,
                ))
                observatory = Observatory(
                    ObservatoryConfig(
                        interval_s=_TAP_INTERVAL_S,
                        detectors=("loss-burst", "agg-crash", "slo-burn"),
                    ),
                    telemetry=telemetry,
                )
            service = FabricService(
                cluster, telemetry=telemetry, queue_limit=4, observatory=observatory
            )
            crosstraffic = CrossTrafficGenerator(
                cluster, pairs=[("worker-0", "worker-4"), ("worker-2", "worker-6")],
                load=0.05, rng=np.random.default_rng(seed + 11),
            )
        with rec.span("run", cell_id):
            crosstraffic.start()
            service.offer(specs, arrivals)
            report = service.drain()
            crosstraffic.stop()
            if observatory is not None:
                observatory.finalize()
        if taps:
            with rec.span("export", cell_id):
                with tempfile.TemporaryDirectory(prefix=".perfledger-", dir=ROOT) as scratch:
                    telemetry.write_trace(os.path.join(scratch, "fleet-trace.json"))
        return cluster, report, telemetry, observatory, kernel.events_total() - events0

    def summarize(raw) -> OpResult:
        cluster, report, telemetry, observatory, kernel_events = raw
        counts = _counts()
        if taps:
            events = telemetry.tracer.events
            counts["spans_recorded"] = sum(1 for e in events if e[2] == "B")
            counts["packet_events_recorded"] = sum(1 for e in events if e[5] == "packet")
            counts["observatory_samples"] = (
                observatory.store.rollup().get("fabric/all/drops", {}).get("count", 0)
            )
            counts["observatory_incidents"] = len(observatory.incidents)
        stats = cluster.network.stats
        done = report.completed
        counts.update(
            events=kernel_events,
            drops=stats.total_packets_dropped,
            jobs_completed=len(done),
            jobs_rejected=len(report.rejected),
            slo_violations=report.slo_violations,
        )
        finishes = repr([(r.spec.name, r.status, r.started_s, r.finished_s)
                         for r in report.records])
        return OpResult(
            sim_time_s=cluster.sim.now,
            packets=sum(stats.packets_sent.values()),
            wire_bytes=stats.total_bytes_sent,
            counts=counts,
            complete=True,
            checksum=zlib.crc32(finishes.encode()),
            extras={
                "completion_p50_s": report.completion_percentile(50),
                "completion_p99_s": report.completion_percentile(99),
            },
            payload=report,
        )

    def verify(op: OpResult):
        """SLO accounting sums: every offered job is accounted for once,
        finished jobs ran every iteration, and the violation count is the
        number of finished jobs past their deadline."""
        report = op.payload
        problems = []
        done, rejected = report.completed, report.rejected
        if len(done) + len(rejected) != len(specs) or len(report.records) != len(specs):
            problems.append(
                f"{len(done)} done + {len(rejected)} rejected != {len(specs)} offered"
            )
        for record in done:
            if record.iterations_done != record.spec.iterations:
                problems.append(f"{record.spec.name} finished short of its iterations")
            if not record.arrival_s <= record.started_s <= record.finished_s:
                problems.append(f"{record.spec.name} has an impossible timeline")
        late = sum(1 for r in done if r.completion_s > r.spec.slo_s)
        if late != report.slo_violations:
            problems.append(f"slo_violations {report.slo_violations} != {late} late jobs")
        return problems, 0.0

    return Cell(cell_id, True, run, summarize, verify)


def fleet_observed(seed: int, jobs: int, elements: int, rates) -> List[Cell]:
    """A multi-job fabric service with the observability taps on and off:
    telemetry, observatory and service do most of the work here and none
    anywhere else."""
    light, saturated = rates
    return [
        fleet_cell(f"fleet/{light:g}-per-s/taps-on", seed, light, True, jobs, elements),
        fleet_cell(f"fleet/{saturated:g}-per-s/taps-on", seed, saturated, True, jobs, elements),
        fleet_cell(f"fleet/{light:g}-per-s/taps-off", seed, light, False, jobs, elements),
    ]


def fleet_cross_check(results: Dict[str, OpResult]) -> List[str]:
    """Observation must not perturb: the taps-on and taps-off cells at the
    same rate simulate the same fleet."""
    on = next(r for cid, r in results.items() if cid.endswith("taps-on"))
    off = next(r for cid, r in results.items() if cid.endswith("taps-off"))
    same = ("sim_time_s", "packets", "wire_bytes", "checksum")
    if any(getattr(on, name) != getattr(off, name) for name in same):
        return ["taps-on and taps-off fleets diverged in simulated results"]
    return []


# ---------------------------------------------------------------------------
# train-step
# ---------------------------------------------------------------------------


def train_cell(cell_id: str, seed: int, workload: str, algorithm: str,
               transport: str, scale_elements: int) -> Cell:
    spec = _fabric(transport)
    wire = {}

    def run(rec, cold: bool = False):
        events0 = kernel.events_total()
        with rec.span("build", cell_id):
            simulator = TrainingSimulator(
                DDL_WORKLOADS[workload], scale_elements=scale_elements,
                samples=1, seed=seed,
            )
        with rec.span("run", cell_id):
            if cold:
                # The report hides the wire counters.  They are
                # deterministic, so read them once, on the untimed op,
                # from a telemetry every cluster built inside attaches to.
                telemetry = Telemetry(TelemetryConfig(record_spans=False, record_packets=False))
                with telemetry_runtime.use(telemetry):
                    report = simulator.measure(algorithm, spec)
                metrics = telemetry.metrics_report()["metrics"]
                for key, name in (("packets", "packets_on_wire"), ("bytes", "bytes_on_wire")):
                    wire[key] = int(sum(s["value"] for s in metrics[name]["samples"]))
            else:
                report = simulator.measure(algorithm, spec)
        return report, kernel.events_total() - events0

    def summarize(raw) -> OpResult:
        report, events = raw
        return OpResult(
            sim_time_s=report.iteration_time_s,
            packets=wire["packets"],
            wire_bytes=wire["bytes"],
            counts=_counts(events=events),
            complete=True,
            checksum=zlib.crc32(repr(sorted(report.details.items())).encode()),
            extras={"comm_time_s": report.comm_time_s},
            payload=report,
        )

    def verify(op: OpResult):
        """The report carries no tensors, so replay its full-scale
        measurement on the same gradients and check that against the
        oracle, and the report's scaled time against the replay's."""
        report = op.payload
        tensors = GradientModel(DDL_WORKLOADS[workload]).generate(
            spec.workers, scale_elements, np.random.default_rng(seed)
        )
        result = prepare(algorithm, Cluster(spec)).allreduce(tensors)
        problems, max_err = verify_outputs(result.outputs, tensors)
        if result.time_s != report.details["comm_scaled_s"]:
            problems.append("report's scaled time differs from a direct replay")
        if not report.iteration_time_s > report.compute_time_s > 0:
            problems.append("iteration time does not exceed compute time")
        return problems, max_err

    return Cell(cell_id, algorithm == "omnireduce", run, summarize, verify)


def train_step(seed: int, scale_elements: int) -> List[Cell]:
    """The paper's application (figure 10): gradient generation, the
    collective at two scales and the two-point extrapolation."""
    return [
        train_cell(f"{workload}/{algorithm}/{transport}", seed, workload,
                   algorithm, transport, scale_elements)
        for workload in ("deeplight", "lstm", "bert")
        for algorithm, transport in (("ring", "tcp"), ("omnireduce", "dpdk"))
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("packet-sweep", packet_sweep),
        Workload("packet-lossy", packet_lossy),
        Workload("flow-flat", flow_flat, flow_pair=flat_pair),
        Workload("flow-fattree", flow_fattree, flow_pair=fattree_pair),
        Workload("fleet-observed", fleet_observed, cross_check=fleet_cross_check),
        Workload("train-step", train_step),
    )
}
