"""FabricService: admission control, queueing, SLOs, fleet telemetry."""

import numpy as np
import pytest

from repro.netsim import Cluster, ClusterSpec
from repro.service import (
    FabricService,
    JobSpec,
    job_mix,
    poisson_arrivals,
)
from repro.service.jobs import DONE, REJECTED
from repro.telemetry import Telemetry, TelemetryConfig

pytestmark = pytest.mark.service


def _cluster(workers=8, aggregators=8):
    return Cluster(ClusterSpec(workers=workers, aggregators=aggregators))


def _spec(name, workers=3, iterations=2, elements=2048, **kw):
    kw.setdefault("aggregators", workers)
    return JobSpec(name=name, workers=workers, iterations=iterations,
                   elements=elements, **kw)


def test_single_job_completes():
    service = FabricService(_cluster())
    service.offer([_spec("solo")], [0.0])
    report = service.drain()
    (record,) = report.records
    assert record.status == DONE
    assert record.iterations_done == 2
    assert record.completion_s > 0
    assert record.slo_met


def test_concurrent_jobs_overlap_in_virtual_time():
    service = FabricService(_cluster())
    service.offer([_spec("a"), _spec("b")], [0.0, 0.0])
    report = service.drain()
    a, b = report.records
    assert a.status == DONE and b.status == DONE
    # Disjoint shard allocations...
    assert not set(a.worker_ids) & set(b.worker_ids)
    assert not set(a.aggregator_ids) & set(b.aggregator_ids)
    # ...running at the same time: the second job started before the
    # first finished.
    assert b.started_s < a.finished_s


def test_queueing_when_fabric_full():
    service = FabricService(_cluster())
    service.offer([_spec(f"j{i}") for i in range(3)], [0.0, 0.0, 0.0])
    report = service.drain()
    first, second, third = report.records
    assert third.status == DONE
    assert third.wait_s > 0
    # The queued job reuses shards released by an earlier job.
    assert set(third.worker_ids) & (set(first.worker_ids) | set(second.worker_ids))


def test_rejection_when_queue_full():
    service = FabricService(_cluster(), queue_limit=1)
    service.offer([_spec(f"j{i}") for i in range(4)], [0.0] * 4)
    report = service.drain()
    statuses = [r.status for r in report.records]
    assert statuses.count(REJECTED) == 1
    assert statuses.count(DONE) == 3
    rejected = report.rejected[0]
    assert rejected.finished_s == rejected.arrival_s


def test_oversized_job_rejected_outright():
    service = FabricService(_cluster(workers=4, aggregators=4), queue_limit=8)
    service.offer([_spec("whale", workers=16)], [0.0])
    report = service.drain()
    assert report.records[0].status == REJECTED


def test_slo_accounting_includes_queue_wait():
    # Tight SLO: the queued third job violates purely through waiting.
    specs = [
        _spec(f"j{i}", iterations=4, elements=65536, slo_s=0.0008)
        for i in range(3)
    ]
    service = FabricService(_cluster())
    service.offer(specs, [0.0, 0.0, 0.0])
    report = service.drain()
    assert report.slo_violations >= 1
    queued = report.records[2]
    assert queued.wait_s > 0
    assert queued.slo_met is False


def test_deterministic_replay():
    def run():
        service = FabricService(_cluster())
        specs = job_mix(5, workers=3, aggregators=3, iterations=2, elements=4096)
        arrivals = poisson_arrivals(500.0, 1.0, np.random.default_rng(42))[:5]
        while len(arrivals) < 5:
            arrivals.append((arrivals[-1] if arrivals else 0.0) + 0.001)
        service.offer(specs, arrivals)
        report = service.drain()
        return [
            (r.spec.name, r.status, r.completion_s, r.worker_ids)
            for r in report.records
        ]

    assert run() == run()


def test_fleet_trace_carries_job_spans_and_collectives():
    telemetry = Telemetry(TelemetryConfig(record_packets=False))
    service = FabricService(_cluster(), telemetry=telemetry)
    service.offer([_spec("a", workload="bert"), _spec("b", workload="lstm")],
                  [0.0, 0.0])
    service.drain()
    trace = telemetry.chrome_trace()
    events = trace["traceEvents"]
    job_spans = [e for e in events if e.get("cat") == "job" and e["ph"] == "B"]
    assert {e["name"] for e in job_spans} == {"a", "b"}
    run_begins = [e for e in events if e.get("cat") == "collective"]
    # Two jobs x two iterations, one recorded run each.
    assert len(run_begins) == 2 * 2
    # Every begin is balanced by an end on its own pid.
    ends_by_pid = {e["pid"] for e in events if e["ph"] == "E"}
    assert {e["pid"] for e in run_begins} <= ends_by_pid
    # All jobs share one virtual-time axis: the service pid is labelled.
    assert "fabric-service" in telemetry.run_labels.values()


def test_job_spans_end_when_their_jobs_finish():
    """Each ``jobs/<name>`` span lives on the service's own trace
    process: no collective frame closing force-closes it early."""
    telemetry = Telemetry(TelemetryConfig(record_packets=False))
    service = FabricService(_cluster(), telemetry=telemetry)
    service.offer(
        [
            _spec("a", workload="deeplight", compute_scale=0.002),
            _spec("b", workload="lstm", compute_scale=0.002),
        ],
        [0.0, 0.0],
    )
    report = service.drain()
    a, b = report.records
    assert a.status == DONE and b.status == DONE
    assert b.started_s < a.finished_s
    service_pids = [
        pid for pid, label in telemetry.run_labels.items()
        if label == "fabric-service"
    ]
    ends = {
        track: ts
        for pid, ts, phase, track, _name, _cat, _args in telemetry.tracer.events
        if phase == "E" and track.startswith("jobs/")
        and pid in service_pids
    }
    assert ends == {f"jobs/{r.spec.name}": r.finished_s for r in report.records}


def test_drain_ignores_background_processes():
    """drain() returns at fleet-idle even with an immortal background
    process keeping the event heap non-empty."""
    cluster = _cluster()

    def _ticker():
        while True:
            yield cluster.sim.timeout(0.001)

    cluster.sim.spawn(_ticker(), name="background")
    service = FabricService(cluster)
    service.offer([_spec("solo")], [0.0])
    report = service.drain()
    assert report.records[0].status == DONE


def test_job_session_close_keeps_fleet_telemetry():
    telemetry = Telemetry(TelemetryConfig(record_packets=False))
    cluster = _cluster()
    service = FabricService(cluster, telemetry=telemetry)
    service.offer([_spec("a"), _spec("b")], [0.0, 0.0005])
    service.drain()
    # Both jobs' sessions have closed; the fleet attachment survives.
    assert telemetry.attached(cluster)
