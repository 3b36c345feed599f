"""Observatory wiring: sampling, the disabled no-op, the trace bridge."""

import numpy as np
import pytest

from repro.core.collective import OmniReduce
from repro.core.config import OmniReduceConfig
from repro.faults import AggregatorCrash, FaultPlan, StragglerSchedule
from repro.netsim import Cluster, ClusterSpec
from repro.observatory import (
    AggregatorCrashDetector,
    Observatory,
    ObservatoryConfig,
)
from repro.observatory.detectors import Detector
from repro.telemetry import Telemetry
from repro.telemetry.export import validate_chrome_trace
from repro.tensors import block_sparse_tensors

pytestmark = [pytest.mark.observatory]


def _cluster(faults=None):
    return Cluster(
        ClusterSpec(workers=4, aggregators=4, bandwidth_gbps=10,
                    transport="dpdk"),
        faults=faults,
    )


def _tensors(seed=0):
    return block_sparse_tensors(
        4, 65536, 256, 0.9, overlap="random",
        rng=np.random.default_rng(seed),
    )


def _run(cluster):
    return OmniReduce(
        cluster, OmniReduceConfig(timeout_s=300e-6)
    ).allreduce(_tensors())


class TestDisabledPath:
    def test_disabled_attach_registers_nothing(self):
        cluster = _cluster()
        obs = Observatory(ObservatoryConfig(enabled=False))
        obs.attach(cluster)
        assert cluster.sim._step_observers == []
        assert not obs.attached(cluster)
        obs.finalize()  # safe no-op
        assert obs.incidents == []

    def test_disabled_run_is_event_identical(self):
        baseline = _cluster()
        _run(baseline)
        events_plain = baseline.sim.events_executed

        watched = _cluster()
        obs = Observatory(ObservatoryConfig(enabled=False))
        obs.attach(watched)
        _run(watched)
        assert watched.sim.events_executed == events_plain


class TestAttachment:
    def test_attach_is_idempotent(self):
        cluster = _cluster()
        obs = Observatory(ObservatoryConfig())
        obs.attach(cluster)
        obs.attach(cluster)
        assert len(cluster.sim._step_observers) == 1
        assert obs.attached(cluster)

    def test_detach_removes_the_sampler(self):
        cluster = _cluster()
        obs = Observatory(ObservatoryConfig())
        obs.attach(cluster)
        obs.detach(cluster)
        assert cluster.sim._step_observers == []
        assert not obs.attached(cluster)

    def test_enabled_run_populates_series(self):
        cluster = _cluster()
        obs = Observatory(ObservatoryConfig(interval_s=20e-6))
        obs.attach(cluster)
        _run(cluster)
        obs.finalize()
        assert len(obs.store) > 0
        assert obs.store.entities("worker")  # per-worker tx series exist


class TestReport:
    def test_report_shape(self):
        cluster = _cluster(
            FaultPlan(stragglers=(StragglerSchedule(worker=0, delay_s=200e-6),))
        )
        obs = Observatory(ObservatoryConfig(interval_s=20e-6))
        obs.attach(cluster)
        _run(cluster)
        obs.finalize()
        report = obs.report()
        assert set(report) == {"incidents", "root_causes", "rollups"}
        assert report["incidents"], "straggler run should raise incidents"
        for entry in report["root_causes"]:
            assert set(entry) == {"incident", "explains", "score"}
        assert "summary" not in report
        text = obs.summary()
        assert "incident" in text

    def test_finalize_closes_every_incident(self):
        cluster = _cluster(
            FaultPlan(stragglers=(StragglerSchedule(worker=0, delay_s=200e-6),))
        )
        obs = Observatory(ObservatoryConfig(interval_s=20e-6))
        obs.attach(cluster)
        _run(cluster)
        obs.finalize()
        assert obs.incidents
        assert all(i.end_s is not None for i in obs.incidents)


class TestTelemetryBridge:
    def test_incidents_become_balanced_trace_tracks(self):
        tele = Telemetry()
        cluster = _cluster(
            FaultPlan(
                aggregator_crashes=(
                    AggregatorCrash(shard=0, time_s=120e-6,
                                    restart_delay_s=100e-6),
                )
            )
        )
        obs = Observatory(ObservatoryConfig(interval_s=20e-6), telemetry=tele)
        obs.attach(cluster)
        with tele.collective("omnireduce", cluster) as op:
            op.result = _run(cluster)
        obs.finalize()
        assert obs.log.by_detector("agg-crash")

        trace = tele.chrome_trace()
        assert validate_chrome_trace(trace) == []
        names = {
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "thread_name"
        }
        assert any(n.startswith("incidents/agg-crash/") for n in names)
        procs = {
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"
        }
        assert "observatory" in procs

    def test_incident_counter_increments(self):
        tele = Telemetry()
        cluster = _cluster(
            FaultPlan(stragglers=(StragglerSchedule(worker=0, delay_s=200e-6),))
        )
        obs = Observatory(ObservatoryConfig(interval_s=20e-6), telemetry=tele)
        obs.attach(cluster)
        _run(cluster)
        obs.finalize()
        counter = tele.metrics.get("incidents")
        assert counter is not None
        total = sum(s["value"] for s in counter.samples())
        assert total == len(obs.incidents)


class _FullScan(Detector):
    """Records each window's generations beside a full port-table scan."""

    name = "full-scan"

    def __init__(self, cluster):
        super().__init__()
        self.cluster = cluster
        self.pairs = []

    def observe(self, window, store, log):
        network = self.cluster.network
        full = AggregatorCrashDetector.scan_generations(
            {name: network.host(name) for name in self.cluster.aggregator_hosts}
        )
        self.pairs.append((dict(window.agg_generations), full))


class TestIncrementalGenerationScan:
    def test_every_window_matches_the_full_scan(self):
        cluster = _cluster(
            FaultPlan(
                aggregator_crashes=(
                    AggregatorCrash(shard=0, time_s=120e-6,
                                    restart_delay_s=100e-6),
                )
            )
        )
        obs = Observatory(
            ObservatoryConfig(interval_s=20e-6, detectors=("agg-crash",))
        )
        full_scan = _FullScan(cluster)
        obs.detectors.append(full_scan)
        obs.attach(cluster)
        _run(cluster)
        obs.finalize()

        assert full_scan.pairs
        for incremental, full in full_scan.pairs:
            assert incremental == full
        tops = [max(gens.values()) for gens, _ in full_scan.pairs]
        # The respawn lands mid-run: windows before it, and after it.
        assert tops[0] == 0 and tops[-1] >= 1
        restarts = [i for i in obs.incidents if i.kind == "restart"]
        assert len(restarts) == 1


class TestServiceWatch:
    def test_slo_burn_detected_on_overloaded_service(self):
        from repro.service import FabricService, JobSpec

        cluster = Cluster(
            ClusterSpec(workers=4, aggregators=4, bandwidth_gbps=10,
                        transport="rdma")
        )
        obs = Observatory(
            ObservatoryConfig(
                interval_s=20e-6,
                detectors=("loss-burst", "agg-crash", "slo-burn"),
            )
        )
        service = FabricService(cluster, observatory=obs)
        specs = [
            JobSpec(name=f"job-{i}", workers=2, aggregators=2, iterations=2,
                    elements=65536, slo_s=150e-6, seed=i)
            for i in range(4)
        ]
        service.offer(specs, [0.0] * 4)
        service.drain()
        obs.finalize()
        burns = obs.log.by_detector("slo-burn")
        assert burns, "queued jobs burning their whole SLO must be flagged"
