"""The admission-controlled multi-job scheduler.

:class:`FabricService` is a long-lived process family on the shared
cluster's virtual clock:

* **Arrivals** -- ``offer(specs, arrival_times)`` schedules job
  submissions (typically Poisson, see
  :func:`~repro.service.jobs.poisson_arrivals`); ``submit`` also works
  directly for hand-built scenarios.
* **Admission control** -- a job is admitted when its worker and
  aggregator-shard demand fits the free pool (first-fit, lowest ids);
  otherwise it waits in a bounded FIFO queue, and when the queue is
  full (or the demand can never fit the fabric) it is rejected
  outright.  FIFO order is strict: a large job at the head blocks
  smaller jobs behind it, the deliberate no-starvation trade-off.
* **Execution** -- each admitted job runs on a
  :class:`~repro.service.view.FabricSlice` of its allocation, one
  :class:`~repro.baselines.api.Session` per job, iterating
  compute-gap -> ``session.submit`` -> wait on the completion event.
  Because every job uses the non-blocking surface, all jobs' protocol
  processes interleave on the one simulator and contend for the shared
  fabric exactly where they physically would.
* **Accounting** -- every job gets a
  :class:`~repro.service.jobs.JobRecord` (wait, completion, SLO); the
  fleet telemetry (when given) carries one ``jobs/<name>`` span per
  job on a reserved service track plus queue/running counters, so the
  exported Perfetto trace shows the whole fleet on one time axis.

``drain()`` runs the simulator until every offered job has completed
or been rejected -- importantly *not* until the event heap is empty,
so permanent background load (cross-traffic generators, samplers)
can keep running underneath.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from ..baselines.registry import get as get_collective
from ..netsim.cluster import Cluster
from ..telemetry.spans import NULL_RECORDER
from ..tensors import block_sparse_tensors
from .jobs import DONE, QUEUED, REJECTED, RUNNING, JobRecord, JobSpec
from .view import FabricSlice

__all__ = ["FabricService", "ServiceReport"]

#: Block size for generated job gradients (the paper's default).
_BLOCK = 256


@dataclass
class ServiceReport:
    """Fleet-level outcome of one service run."""

    records: List[JobRecord] = field(default_factory=list)

    def by_status(self, status: str) -> List[JobRecord]:
        return [r for r in self.records if r.status == status]

    @property
    def completed(self) -> List[JobRecord]:
        return self.by_status(DONE)

    @property
    def rejected(self) -> List[JobRecord]:
        return self.by_status(REJECTED)

    def completion_percentile(self, q: float) -> float:
        """q-th percentile of arrival-to-finish time over completed jobs."""
        times = [r.completion_s for r in self.completed]
        if not times:
            return float("nan")
        return float(np.percentile(times, q))

    @property
    def mean_wait_s(self) -> float:
        waits = [r.wait_s for r in self.completed]
        if not waits:
            return float("nan")
        return float(np.mean(waits))

    @property
    def slo_violations(self) -> int:
        return sum(1 for r in self.completed if r.slo_met is False)


class FabricService:
    """Admission-controlled scheduler sharing one cluster between jobs."""

    def __init__(
        self,
        cluster: Cluster,
        telemetry=None,
        queue_limit: int = 4,
        sim_mode: str = "packet",
        observatory=None,
    ) -> None:
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if sim_mode not in ("packet", "flow"):
            raise ValueError("sim_mode must be 'packet' or 'flow'")
        self.cluster = cluster
        self.sim = cluster.sim
        self.queue_limit = queue_limit
        #: Simulation granularity every job session runs under: the
        #: exact per-packet kernel or the flow-level fast path (each
        #: job's slice is wrapped in a flow view at prepare() time).
        self.sim_mode = sim_mode
        self.telemetry = telemetry
        #: The ``fabric-service`` trace process: job spans, admission
        #: marks and queue counters.
        self._recorder = NULL_RECORDER
        if telemetry is not None:
            # Attach before any job session exists so job sessions never
            # own (and never tear down) the fleet attachment.
            telemetry.attach(cluster)
            self._recorder = telemetry.process("fabric-service")
        #: Optional :class:`~repro.observatory.Observatory`: watches the
        #: shared fabric and this service's job records (SLO burn-rate
        #: alerts).  A disabled observatory attaches as a no-op.
        self.observatory = observatory
        if observatory is not None:
            observatory.watch_service(self)
        self._free_workers = sorted(range(cluster.spec.workers))
        self._colocated = cluster.spec.colocated
        if self._colocated:
            self._free_aggregators: List[int] = []
        else:
            self._free_aggregators = sorted(range(cluster.spec.aggregators))
        self._queue: Deque[JobRecord] = deque()
        self._running: Dict[str, JobRecord] = {}
        self._pending_arrivals = 0
        self._done_signal = None
        self.records: List[JobRecord] = []

    # -- offered load --------------------------------------------------------

    def offer(self, specs: Sequence[JobSpec], arrival_times: Sequence[float]) -> None:
        """Schedule one submission per (spec, arrival time) pair.

        Times are absolute virtual-clock times and must not be in the
        simulator's past.
        """
        if len(specs) != len(arrival_times):
            raise ValueError("need one arrival time per job spec")
        for spec, at in zip(specs, arrival_times):
            if at < self.sim.now:
                raise ValueError(f"arrival at {at} is in the simulated past")
            self._pending_arrivals += 1
            self.sim.call_at(at, self._arrive, spec)

    def submit(self, spec: JobSpec) -> JobRecord:
        """Submit one job right now; returns its (live) record."""
        record = JobRecord(spec=spec, arrival_s=self.sim.now)
        self.records.append(record)
        self._mark(f"arrive:{spec.name}")
        if not self._fits_fabric(spec):
            self._reject(record, "demand exceeds fabric")
        elif not self._try_start(record):
            if len(self._queue) >= self.queue_limit:
                self._reject(record, "queue full")
            else:
                self._queue.append(record)
                self._counters()
        return record

    def _arrive(self, spec: JobSpec) -> None:
        self._pending_arrivals -= 1
        self.submit(spec)
        self._maybe_finish()

    # -- admission -----------------------------------------------------------

    def _fits_fabric(self, spec: JobSpec) -> bool:
        if spec.workers > self.cluster.spec.workers:
            return False
        if not self._colocated and spec.aggregators > self.cluster.spec.aggregators:
            return False
        return True

    def _allocation(self, spec: JobSpec):
        """First-fit shard allocation, or ``None`` if it doesn't fit now."""
        if len(self._free_workers) < spec.workers:
            return None
        if self._colocated:
            return self._free_workers[: spec.workers], ()
        if len(self._free_aggregators) < spec.aggregators:
            return None
        return (
            self._free_workers[: spec.workers],
            self._free_aggregators[: spec.aggregators],
        )

    def _try_start(self, record: JobRecord) -> bool:
        allocation = self._allocation(record.spec)
        if allocation is None:
            return False
        worker_ids, aggregator_ids = allocation
        for i in worker_ids:
            self._free_workers.remove(i)
        for j in aggregator_ids:
            self._free_aggregators.remove(j)
        record.worker_ids = tuple(worker_ids)
        record.aggregator_ids = tuple(aggregator_ids)
        record.admitted_s = self.sim.now
        record.status = RUNNING
        self._running[record.spec.name] = record
        fabric = FabricSlice(self.cluster, worker_ids, aggregator_ids)
        collective = get_collective(record.spec.algorithm)
        session = collective.prepare(
            fabric, collective.options_cls.from_kwargs(sim_mode=self.sim_mode)
        )
        self.sim.spawn(
            self._job_proc(record, session), name=f"job:{record.spec.name}"
        )
        self._counters()
        return True

    def _reject(self, record: JobRecord, reason: str) -> None:
        record.status = REJECTED
        record.finished_s = self.sim.now
        self._mark(f"reject:{record.spec.name}", reason=reason)

    # -- execution -----------------------------------------------------------

    def _job_proc(self, record: JobRecord, session):
        spec = record.spec
        record.started_s = self.sim.now
        self._job_span_open(record)
        rng = np.random.default_rng(spec.seed)
        with session:
            for _ in range(spec.iterations):
                if spec.compute_time_s > 0:
                    yield self.sim.timeout(spec.compute_time_s)
                tensors = block_sparse_tensors(
                    spec.workers, spec.elements, _BLOCK, spec.sparsity, rng=rng
                )
                start = self.sim.now
                pending = session.submit(tensors)
                result = yield pending.event
                record.iterations_done += 1
                record.comm_time_s += result.time_s
                record.iteration_times_s.append(self.sim.now - start)
        record.finished_s = self.sim.now
        record.status = DONE
        self._job_span_close(record)
        self._release(record)

    def _release(self, record: JobRecord) -> None:
        self._running.pop(record.spec.name, None)
        self._free_workers = sorted(self._free_workers + list(record.worker_ids))
        self._free_aggregators = sorted(
            self._free_aggregators + list(record.aggregator_ids)
        )
        # Strict FIFO drain: stop at the first queued job that still
        # doesn't fit (it keeps its place at the head).
        while self._queue and self._try_start(self._queue[0]):
            self._queue.popleft()
        self._counters()
        self._maybe_finish()

    # -- completion ----------------------------------------------------------

    def _maybe_finish(self) -> None:
        if (
            self._done_signal is not None
            and not self._done_signal.triggered
            and self._pending_arrivals == 0
            and not self._queue
            and not self._running
        ):
            self._done_signal.succeed(None)

    def drain(self) -> ServiceReport:
        """Run the clock until every offered job completed or was rejected.

        Stops at fleet-idle rather than event-heap-empty, so permanent
        background processes (cross-traffic, samplers) keep the heap
        non-empty without hanging the service.
        """
        self._done_signal = self.sim.signal()
        self._maybe_finish()
        self.sim.run(until=self._done_signal)
        self._done_signal = None
        return self.report()

    def report(self) -> ServiceReport:
        return ServiceReport(records=list(self.records))

    # -- fleet telemetry -----------------------------------------------------

    def _mark(self, name: str, **args) -> None:
        self._recorder.instant(
            self.sim.now, "service", name, cat="service", args=args or None
        )

    def _counters(self) -> None:
        rec = self._recorder
        rec.counter(self.sim.now, "service", "queued", len(self._queue))
        rec.counter(self.sim.now, "service", "running", len(self._running))

    def _job_span_open(self, record: JobRecord) -> None:
        self._recorder.begin(
            self.sim.now,
            f"jobs/{record.spec.name}",
            record.spec.name,
            cat="job",
            args={
                "workload": record.spec.workload,
                "algorithm": record.spec.algorithm,
                "workers": list(record.worker_ids),
                "aggregators": list(record.aggregator_ids),
                "waited_s": record.wait_s,
            },
        )

    def _job_span_close(self, record: JobRecord) -> None:
        self._recorder.end(self.sim.now, f"jobs/{record.spec.name}")
