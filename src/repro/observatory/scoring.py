"""Fault-plan-scored evaluation of the detector suite.

:mod:`repro.faults` makes every injected anomaly *labeled ground
truth*: a :class:`~repro.faults.FaultPlan` says exactly which worker
straggles, when the loss burst window opens, which shard crashes.  The
scoring harness replays a matrix of such scenarios (plus clean runs as
negatives), runs each under a fresh :class:`~repro.observatory.Observatory`,
and matches emitted incidents against the scenario's expectations:

* an expectation matched by an incident of the right detector and
  blamed-entity prefix is a **true positive** (time-to-detect =
  incident start minus injection time),
* an unmatched expectation is a **false negative**,
* a leftover incident is a **false positive** -- unless the attribution
  pass explains it by an incident that itself matched ground truth
  (a crash's drop spike is the crash's symptom, not a false alarm), or
  it re-detects an already-matched expectation (counted as a duplicate,
  not an error).

Precision/recall/time-to-detect per detector come out of
``python -m repro.bench --experiment observatory``; the acceptance gate
holds straggler, loss-burst, and crash detection to >=0.9 on both
axes with zero incidents on clean runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import OmniReduceOptions, RackHierarchicalOptions, prepare
from ..core.config import OmniReduceConfig
from ..faults import AggregatorCrash, FaultPlan, LinkDegradation, StragglerSchedule
from ..netsim.cluster import Cluster, ClusterSpec
from ..netsim.loss import GilbertElliottLoss
from ..netsim.topology import FatTreeTopology, rack_map_for
from ..tensors import block_sparse_tensors
from .attribution import correlate
from .incidents import Incident
from .monitor import Observatory, ObservatoryConfig

__all__ = [
    "Expectation",
    "Scenario",
    "DetectorScore",
    "ScenarioOutcome",
    "matrix",
    "run_scenario",
    "match_outcome",
    "default_slack",
    "evaluate",
    "score",
]

#: Mean loss-run length for the Gilbert-Elliott scenarios (packets).
MEAN_BURST_PACKETS = 4.0

#: Workers/aggregators in every scoring cluster.
WORKERS = 4


@dataclass(frozen=True)
class Expectation:
    """One injected anomaly the detectors are expected to report."""

    detector: str
    entity_prefix: str
    inject_s: float = 0.0


@dataclass
class Scenario:
    """One scored run: a fault plan plus its expected detections.

    ``runner`` picks the workload: ``"collective"`` (flat OmniReduce,
    dpdk), ``"rackhier"`` (rack-hierarchical engine over a fat tree,
    for congestion cases), or ``"service"`` (a FabricService burst, for
    SLO cases).  ``spine_gbps`` only applies to ``rackhier``.
    """

    name: str
    expected: Tuple[Expectation, ...] = ()
    plan: Optional[FaultPlan] = None
    runner: str = "collective"
    timeout_s: float = 300e-6
    spine_gbps: Optional[float] = None
    #: Per-scenario tensor size override (loss scenarios need enough
    #: packets on the wire for a Gilbert-Elliott burst to land).
    elements: Optional[int] = None
    #: Per-scenario fleet size override (median-based skew detection
    #: needs the stragglers to be a strict minority of the fleet).
    workers: int = WORKERS
    seed: int = 0


@dataclass
class ScenarioOutcome:
    """What one scenario produced, with the match bookkeeping."""

    scenario: Scenario
    incidents: List[Incident] = field(default_factory=list)
    matched: Dict[int, Expectation] = field(default_factory=dict)
    duplicates: int = 0
    explained: int = 0
    false_positives: List[Incident] = field(default_factory=list)
    missed: List[Expectation] = field(default_factory=list)
    ttd_s: Dict[Expectation, float] = field(default_factory=dict)


@dataclass
class DetectorScore:
    """Aggregate precision/recall/TTD for one detector."""

    detector: str
    tp: int = 0
    fp: int = 0
    fn: int = 0
    ttds_s: List[float] = field(default_factory=list)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 1.0

    @property
    def mean_ttd_s(self) -> float:
        return float(np.mean(self.ttds_s)) if self.ttds_s else 0.0


def matrix(level: str = "full", seed: int = 0) -> List[Scenario]:
    """The fault-plan scenario matrix (fresh RNG state per call).

    ``level="smoke"`` is the bounded CI subset: one scenario per scored
    detector plus a clean negative.
    """

    def ge(rate: float, rng_seed: int) -> GilbertElliottLoss:
        return GilbertElliottLoss.from_stationary_rate(
            rate,
            mean_burst_packets=MEAN_BURST_PACKETS,
            rng=np.random.default_rng(rng_seed),
        )

    straggle = Expectation("straggler", "worker/worker-", 0.0)
    loss = Expectation("loss-burst", "fabric", 0.0)

    smoke = [
        Scenario("clean", seed=seed),
        Scenario(
            "straggler-delay",
            expected=(Expectation("straggler", "worker/worker-0"),),
            plan=FaultPlan(
                stragglers=(StragglerSchedule(worker=0, delay_s=200e-6),)
            ),
            seed=seed + 1,
        ),
        Scenario(
            "ge-loss-1.00%",
            expected=(loss,),
            plan=FaultPlan(loss=ge(1e-2, seed + 7)),
            elements=262144,
            seed=seed + 2,
        ),
        Scenario(
            "crash",
            expected=(
                Expectation("agg-crash", "agg/agg-0", inject_s=120e-6),
            ),
            plan=FaultPlan(
                aggregator_crashes=(
                    AggregatorCrash(
                        shard=0, time_s=120e-6, restart_delay_s=100e-6
                    ),
                )
            ),
            seed=seed + 3,
        ),
    ]
    if level == "smoke":
        return smoke

    full = smoke + [
        Scenario("clean-2", seed=seed + 10),
        Scenario("clean-topology", runner="rackhier", seed=seed + 11),
        Scenario(
            "straggler-slow",
            expected=(Expectation("straggler", "worker/worker-1"),),
            plan=FaultPlan(
                stragglers=(StragglerSchedule(worker=1, slowdown=2.5),)
            ),
            # Long enough that the fleet leaves the latency-bound
            # regime and the slow NIC's skew shows up on the wire.
            elements=262144,
            seed=seed + 12,
        ),
        Scenario(
            "straggler-mixed",
            expected=(Expectation("straggler", "worker/worker-2"),),
            plan=FaultPlan(
                stragglers=(
                    StragglerSchedule(worker=2, delay_s=150e-6, slowdown=1.8),
                )
            ),
            seed=seed + 13,
        ),
        Scenario(
            "ge-loss-0.50%",
            expected=(loss,),
            plan=FaultPlan(loss=ge(5e-3, seed + 17)),
            elements=262144,
            seed=seed + 14,
        ),
        Scenario(
            "link-degradation",
            expected=(loss,),
            plan=FaultPlan(
                link_degradations=(
                    LinkDegradation(
                        loss_rate=0.05, start_s=100e-6, end_s=400e-6,
                        dst="agg-1",
                    ),
                )
            ),
            elements=262144,
            seed=seed + 15,
        ),
        Scenario(
            "crash-failover",
            expected=(Expectation("agg-crash", "agg/", inject_s=120e-6),),
            plan=FaultPlan(
                aggregator_crashes=(
                    AggregatorCrash(
                        shard=0,
                        time_s=120e-6,
                        restart_delay_s=100e-6,
                        failover_shard=1,
                    ),
                )
            ),
            seed=seed + 16,
        ),
        Scenario(
            "spine-congestion",
            expected=(Expectation("congestion", "pipe/spine"),),
            runner="rackhier",
            spine_gbps=2.0,
            seed=seed + 17,
        ),
        Scenario(
            "service-overload",
            expected=(
                Expectation("slo-burn", "job/job-2"),
                Expectation("slo-burn", "job/job-3"),
            ),
            runner="service",
            seed=seed + 18,
        ),
        Scenario(
            "straggler-two",
            expected=(
                Expectation("straggler", "worker/worker-0"),
                Expectation("straggler", "worker/worker-3"),
            ),
            plan=FaultPlan(
                stragglers=(
                    StragglerSchedule(worker=0, delay_s=250e-6),
                    StragglerSchedule(worker=3, delay_s=250e-6),
                )
            ),
            workers=8,
            seed=seed + 19,
        ),
    ]
    return full


def _tensors(workers: int, elements: int, seed: int):
    return block_sparse_tensors(
        workers, elements, 256, 0.9,
        overlap="random", rng=np.random.default_rng(seed),
    )


def _observatory(interval_s: float) -> Observatory:
    return Observatory(ObservatoryConfig(interval_s=interval_s))


def _run_collective(
    scenario: Scenario, elements: int, interval_s: float
) -> Observatory:
    spec = ClusterSpec(
        workers=scenario.workers, aggregators=scenario.workers,
        bandwidth_gbps=10.0, transport="dpdk",
    )
    cluster = Cluster(spec, faults=scenario.plan)
    obs = _observatory(interval_s)
    obs.attach(cluster)
    options = OmniReduceOptions(
        config=OmniReduceConfig(timeout_s=scenario.timeout_s)
    )
    prepare("omnireduce", cluster, options).allreduce(
        _tensors(scenario.workers, elements, scenario.seed)
    )
    obs.finalize()
    return obs


def _run_rackhier(
    scenario: Scenario, elements: int, interval_s: float
) -> Observatory:
    rack_size = 2
    topology = FatTreeTopology(
        rack_size=rack_size,
        uplink_gbps=20.0,
        spine_gbps=scenario.spine_gbps,
        spines=1,
        rack_of=rack_map_for(WORKERS, WORKERS, rack_size),
    )
    spec = ClusterSpec(
        workers=WORKERS, aggregators=WORKERS,
        bandwidth_gbps=10.0, transport="rdma",
    )
    cluster = Cluster(spec, topology=topology, faults=scenario.plan)
    obs = _observatory(interval_s)
    obs.attach(cluster)
    options = RackHierarchicalOptions(rack_size=rack_size)
    prepare("rackhier", cluster, options).allreduce(
        _tensors(WORKERS, elements, scenario.seed)
    )
    obs.finalize()
    return obs


def _run_service(
    scenario: Scenario, elements: int, interval_s: float
) -> Observatory:
    from ..service import FabricService, JobSpec

    spec = ClusterSpec(
        workers=WORKERS, aggregators=WORKERS,
        bandwidth_gbps=10.0, transport="rdma",
    )
    cluster = Cluster(spec)
    # Job-level signals only: per-worker skew comparisons are undefined
    # across tenants on partial slices (see ObservatoryConfig docs).
    obs = Observatory(
        ObservatoryConfig(
            interval_s=interval_s,
            detectors=("loss-burst", "agg-crash", "slo-burn"),
        )
    )
    service = FabricService(cluster, observatory=obs)
    # Four identical jobs, two admitted at once: the two queued jobs
    # burn their whole budget waiting and must be flagged.
    probe = _probe_job_time(cluster.spec, elements)
    specs = [
        JobSpec(
            name=f"job-{i}",
            workers=2,
            aggregators=2,
            iterations=2,
            elements=elements,
            slo_s=2.5 * probe,
            seed=scenario.seed + i,
        )
        for i in range(4)
    ]
    service.offer(specs, [0.0, 0.0, 0.0, 0.0])
    service.drain()
    obs.finalize()
    return obs


def _probe_job_time(spec: ClusterSpec, elements: int) -> float:
    """One 2-worker job's run time on an idle fabric (the SLO yardstick)."""
    from ..service import FabricService, JobSpec

    cluster = Cluster(spec)
    service = FabricService(cluster)
    record = service.submit(
        JobSpec(name="probe", workers=2, aggregators=2, iterations=2,
                elements=elements)
    )
    service.drain()
    return record.completion_s or 1e-3


_RUNNERS = {
    "collective": _run_collective,
    "rackhier": _run_rackhier,
    "service": _run_service,
}


def run_scenario(
    scenario: Scenario, elements: int = 65536, interval_s: float = 20e-6
) -> Observatory:
    """Run one scenario under a fresh observatory; returns it finalized."""
    effective = scenario.elements or elements
    return _RUNNERS[scenario.runner](scenario, effective, interval_s)


def default_slack(scenario: Scenario, interval_s: float = 20e-6) -> float:
    """Attribution slack for matching this scenario's incidents.

    Symptoms trail their cause by the detectors' confirmation streaks
    (a handful of intervals) plus -- for loss -- one retransmit timeout:
    a dropped packet's victim only *looks* slow once its timer fires.
    """
    return scenario.timeout_s + 10.0 * interval_s


def match_outcome(
    scenario: Scenario,
    incidents: List[Incident],
    slack_s: float,
) -> ScenarioOutcome:
    """Match a scenario's incidents against its expectations."""
    outcome = ScenarioOutcome(scenario=scenario, incidents=list(incidents))
    remaining = list(incidents)
    for expectation in scenario.expected:
        candidates = [
            i
            for i in remaining
            if i.detector == expectation.detector
            and i.entity.startswith(expectation.entity_prefix)
        ]
        if not candidates:
            outcome.missed.append(expectation)
            continue
        hit = min(candidates, key=lambda i: i.start_s)
        remaining.remove(hit)
        outcome.matched[id(hit)] = expectation
        outcome.ttd_s[expectation] = max(0.0, hit.start_s - expectation.inject_s)
    # Leftovers: duplicate re-detections of an already-matched
    # expectation are neither right nor wrong twice; incidents the
    # attribution pass pins on a *matched* cause are symptoms, not
    # false alarms.  Everything else is a false positive.
    matched_pairs = {
        (exp.detector, exp.entity_prefix)
        for exp in scenario.expected
        if exp not in outcome.missed
    }
    causes = correlate(incidents, slack_s=slack_s)
    cause_of: Dict[int, Incident] = {}
    for cause in causes:
        for effect in cause.explains:
            cause_of[id(effect)] = cause.incident
    for incident in remaining:
        if any(
            incident.detector == det and incident.entity.startswith(prefix)
            for det, prefix in matched_pairs
        ):
            outcome.duplicates += 1
            continue
        root = cause_of.get(id(incident))
        if root is not None and id(root) in outcome.matched:
            outcome.explained += 1
            continue
        outcome.false_positives.append(incident)
    return outcome


def evaluate(
    level: str = "full",
    seed: int = 0,
    elements: int = 65536,
    interval_s: float = 20e-6,
) -> List[ScenarioOutcome]:
    """Run and match the whole matrix; feed the result to :func:`score`."""
    outcomes = []
    for scenario in matrix(level, seed=seed):
        observatory = run_scenario(scenario, elements, interval_s)
        outcomes.append(
            match_outcome(
                scenario,
                observatory.incidents,
                slack_s=default_slack(scenario, interval_s),
            )
        )
    return outcomes


def score(outcomes: Sequence[ScenarioOutcome]) -> Dict[str, DetectorScore]:
    """Aggregate per-detector precision/recall/TTD over all outcomes."""
    scores: Dict[str, DetectorScore] = {}

    def get(detector: str) -> DetectorScore:
        if detector not in scores:
            scores[detector] = DetectorScore(detector=detector)
        return scores[detector]

    for outcome in outcomes:
        for incident_id, expectation in outcome.matched.items():
            entry = get(expectation.detector)
            entry.tp += 1
            entry.ttds_s.append(outcome.ttd_s[expectation])
        for expectation in outcome.missed:
            get(expectation.detector).fn += 1
        for incident in outcome.false_positives:
            get(incident.detector).fp += 1
    return scores
