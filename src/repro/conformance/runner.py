"""The differential conformance runner.

A :class:`ConformanceCase` is a fully declarative description of one
run: algorithm, cluster shape, tensor pattern, dtype, transport, fault
plan and seed.  Determinism is the load-bearing property -- the same
case always reproduces the same simulation, which is what makes
seed-replay (:mod:`repro.conformance.replay`) possible.

:func:`run_case` materializes the case, attaches the invariant monitors
to the cluster (kernel step observer + network observers), runs the
collective, drains the network, and checks three things:

1. the result against the dense oracle (within per-dtype tolerance),
2. the uniform CollectiveResult counters for internal consistency,
3. every attached invariant monitor.

:func:`default_matrix` builds the sweep the acceptance criteria name:
every registry algorithm crossed with worker counts, block sizes,
sparsity patterns, dtypes and fault plans (the fault/dtype/transport
axes apply to OmniReduce, whose protocol they exercise; baselines run
the shared axes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from ..baselines import registry
from ..baselines.api import OmniReduceOptions, Options
from ..core.collective import CollectiveResult
from ..core.config import OmniReduceConfig
from ..core.features import ProtocolFeatures
from ..faults import AggregatorCrash, FaultPlan, StragglerSchedule
from ..netsim.cluster import Cluster, ClusterSpec
from ..netsim.loss import BernoulliLoss, GilbertElliottLoss
from ..netsim.topology import FatTreeTopology, LeafSpineTopology, rack_map_for
from .monitors import InvariantMonitor, Violation, default_monitors
from .oracle import check_counters, check_outputs, dense_oracle
from .patterns import SPARSITY_PATTERNS, make_tensors

__all__ = [
    "ConformanceCase",
    "CaseReport",
    "FAULT_PLANS",
    "TOPOLOGIES",
    "run_case",
    "sweep",
    "default_matrix",
]

#: Retransmission timer used by fault-plan cases (keeps recovery fast at
#: simulated microsecond scales) and its backoff bounds.
FAULT_TIMEOUT_S = 300e-6
FAULT_BACKOFF_FACTOR = 2.0
FAULT_TIMEOUT_MAX_S = 4 * FAULT_TIMEOUT_S

#: Named fault plans: name -> factory(seed) -> Optional[FaultPlan].
#: Names (not objects) keep cases serializable into repro snippets.
FAULT_PLANS: Dict[str, Callable[[int], Optional[FaultPlan]]] = {
    "none": lambda seed: None,
    "bernoulli-loss": lambda seed: FaultPlan(
        loss=BernoulliLoss(5e-3, np.random.default_rng(seed + 11))
    ),
    "ge-loss": lambda seed: FaultPlan(
        loss=GilbertElliottLoss.from_stationary_rate(
            1e-2, mean_burst_packets=4.0, rng=np.random.default_rng(seed + 13)
        )
    ),
    "crash-failover": lambda seed: FaultPlan(
        aggregator_crashes=(
            AggregatorCrash(
                shard=0, time_s=50e-6, restart_delay_s=100e-6, failover_shard=1
            ),
        )
    ),
    "straggler": lambda seed: FaultPlan(
        stragglers=(StragglerSchedule(worker=0, delay_s=200e-6, slowdown=2.0),)
    ),
}

#: Fault plans that drop packets (retransmissions become legitimate).
_LOSSY_FAULTS = frozenset({"bernoulli-loss", "ge-loss"})


def _case_aggregators(case: "ConformanceCase") -> int:
    return case.aggregators if case.aggregators is not None else case.workers


#: Named topologies: name -> factory(case) -> Optional[topology].  Like
#: :data:`FAULT_PLANS`, names keep cases serializable; factories read
#: the case's worker/aggregator counts so racks always come out full
#: (:func:`rack_map_for` puts aggregators in their own rack).  Hosts run
#: 10 Gbps NICs (the spec default), so a rack of two offers 20 Gbps and
#: the ``2x``/``4x`` suffixes name the resulting uplink oversubscription.
TOPOLOGIES: Dict[str, Callable[["ConformanceCase"], Optional[object]]] = {
    "flat": lambda case: None,
    "leaf-spine-2x": lambda case: LeafSpineTopology(
        rack_size=2,
        uplink_gbps=10.0,
        rack_of=rack_map_for(case.workers, _case_aggregators(case), 2),
    ),
    "fat-tree-2x": lambda case: FatTreeTopology(
        rack_size=2,
        uplink_gbps=10.0,
        spine_gbps=40.0,
        spines=2,
        rack_of=rack_map_for(case.workers, _case_aggregators(case), 2),
    ),
    "fat-tree-4x": lambda case: FatTreeTopology(
        rack_size=2,
        uplink_gbps=5.0,
        spine_gbps=20.0,
        spines=2,
        rack_of=rack_map_for(case.workers, _case_aggregators(case), 2),
    ),
}


@dataclass(frozen=True)
class ConformanceCase:
    """One deterministic conformance run, fully described by its fields."""

    algorithm: str = "omnireduce"
    workers: int = 4
    aggregators: Optional[int] = None  # None -> one shard per worker
    elements: int = 2048
    block_size: int = 64
    pattern: str = "uniform"
    dtype: str = "float32"
    transport: str = "rdma"
    fault: str = "none"
    #: Named fabric from :data:`TOPOLOGIES` ("flat" = the default
    #: full-bisection network).  Shared topology pipes are part of the
    #: timing contract, so the packet-vs-flow differential runs them too.
    topology: str = "flat"
    seed: int = 0
    #: Simulation granularity: ``"packet"`` (the exact event kernel, the
    #: oracle) or ``"flow"`` (the analytical fast path).  The
    #: packet-vs-flow differential (:mod:`repro.conformance.differential`)
    #: runs the *same* case under both modes and demands bit-identical
    #: tensors and exact wire counters.
    sim_mode: str = "packet"
    #: Test-only mutant wrapped around the algorithm ("" = none); see
    #: :mod:`repro.conformance.mutants`.
    mutant: str = ""
    #: Protocol feature set for OmniReduce cases (``None`` = defaults);
    #: the ablation harness and the feature-conformance tests run
    #: single-feature-off cases against the same dense oracle.
    features: Optional["ProtocolFeatures"] = None

    def __post_init__(self) -> None:
        if self.pattern not in SPARSITY_PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.fault not in FAULT_PLANS:
            raise ValueError(
                f"unknown fault plan {self.fault!r}; "
                f"choose from {sorted(FAULT_PLANS)}"
            )
        if self.sim_mode not in ("packet", "flow"):
            raise ValueError(
                f"unknown sim_mode {self.sim_mode!r}; "
                "choose 'packet' or 'flow'"
            )
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"choose from {sorted(TOPOLOGIES)}"
            )
        if self.elements < self.block_size:
            raise ValueError("elements must cover at least one block")
        if self.features is not None and not isinstance(
            self.features, ProtocolFeatures
        ):
            raise TypeError("features must be a ProtocolFeatures instance")

    @property
    def case_id(self) -> str:
        parts = [
            self.algorithm,
            f"w{self.workers}",
        ]
        if self.aggregators is not None:
            parts.append(f"a{self.aggregators}")
        parts += [
            f"n{self.elements}",
            f"bs{self.block_size}",
            self.pattern,
            self.dtype,
            self.transport,
        ]
        if self.fault != "none":
            parts.append(self.fault)
        if self.topology != "flat":
            parts.append(self.topology)
        if self.sim_mode != "packet":
            parts.append(self.sim_mode)
        if self.mutant:
            parts.append(f"mutant:{self.mutant}")
        if self.features is not None:
            off = [name for name, on in self.features.labels() if not on]
            if off:
                parts.append("no-" + "+".join(off))
        parts.append(f"s{self.seed}")
        return "/".join(parts)

    def with_(self, **changes) -> "ConformanceCase":
        return replace(self, **changes)

    # -- materialization ---------------------------------------------------

    def cluster_spec(self) -> ClusterSpec:
        aggregators = self.aggregators if self.aggregators is not None else self.workers
        return ClusterSpec(
            workers=self.workers,
            aggregators=aggregators,
            transport=self.transport,
            seed=self.seed,
        )

    def fault_plan(self) -> Optional[FaultPlan]:
        return FAULT_PLANS[self.fault](self.seed)

    def build_topology(self):
        """Materialize the named topology (``None`` for "flat")."""
        return TOPOLOGIES[self.topology](self)

    def tensors(self) -> List[np.ndarray]:
        return make_tensors(
            self.pattern,
            self.workers,
            self.elements,
            self.block_size,
            self.seed,
            dtype=np.dtype(self.dtype),
        )

    def options(self) -> Options:
        if not self.algorithm.startswith("omnireduce"):
            return registry.get(self.algorithm).options_cls.from_kwargs(
                sim_mode=self.sim_mode, features=self.features
            )
        config = OmniReduceConfig(block_size=self.block_size)
        if self.features is not None:
            config = config.with_(features=self.features)
        if self.fault != "none":
            config = config.with_(
                timeout_s=FAULT_TIMEOUT_S,
                timeout_max_s=FAULT_TIMEOUT_MAX_S,
                features=config.features.with_(
                    backoff_factor=FAULT_BACKOFF_FACTOR
                ),
            )
            if self.fault == "straggler" and self.transport != "dpdk":
                # Stragglers delay but never lose packets; on a reliable
                # transport the run needs no Algorithm 2 timers.  Pinning
                # recovery off keeps the protocol identical across the
                # packet-vs-flow differential (the timers are per-packet
                # and flow mode refuses them).
                config = config.with_(recovery=False)
        return OmniReduceOptions(config=config, sim_mode=self.sim_mode)

    def monitors(self) -> List[InvariantMonitor]:
        if self.sim_mode == "flow":
            # Flow mode books whole messages analytically, bypassing the
            # per-packet trace stream the wire monitors listen on; the
            # invariants are enforced on the packet side of the
            # differential instead (see repro.conformance.differential).
            return []
        backoff = None
        if (
            self.algorithm.startswith("omnireduce")
            and self.fault in _LOSSY_FAULTS
            and self.transport == "dpdk"
        ):
            backoff = (FAULT_TIMEOUT_S, FAULT_BACKOFF_FACTOR, FAULT_TIMEOUT_MAX_S)
        # zero_block_suppression is the *promise* the case makes
        # (OmniReduce conformance promises it unless the case explicitly
        # ablates the feature); a mutant that secretly breaks the promise
        # must still face the monitor.
        suppresses = (
            self.features is None or self.features.zero_block_suppression
        )
        return default_monitors(
            algorithm=self.algorithm,
            zero_block_suppression=suppresses,
            backoff=backoff,
        )


@dataclass
class CaseReport:
    """Outcome of one conformance run."""

    case: ConformanceCase
    oracle_problems: List[str] = field(default_factory=list)
    counter_problems: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    result: Optional[CollectiveResult] = None
    max_abs_err: float = 0.0

    @property
    def ok(self) -> bool:
        return not (self.oracle_problems or self.counter_problems or self.violations)

    def problems(self) -> List[str]:
        return (
            self.oracle_problems
            + self.counter_problems
            + [str(v) for v in self.violations]
        )

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status} {self.case.case_id} (max_abs_err={self.max_abs_err:.3e})"]
        lines.extend(f"  - {p}" for p in self.problems())
        return "\n".join(lines)


#: How long (simulated seconds) the runner lets the network drain after
#: the collective returns, so conservation checks see settled counters.
DRAIN_GRACE_S = 0.5


def _resolve_collective(case: ConformanceCase):
    collective = registry.get(case.algorithm)
    if case.mutant:
        from .mutants import MUTANTS  # local import: mutants import the api

        if case.mutant not in MUTANTS:
            raise ValueError(
                f"unknown mutant {case.mutant!r}; choose from {sorted(MUTANTS)}"
            )
        collective = MUTANTS[case.mutant](collective)
    return collective


def run_case(case: ConformanceCase, with_monitors: bool = True) -> CaseReport:
    """Execute one conformance case and check everything checkable."""
    report = CaseReport(case=case)
    cluster = Cluster(
        case.cluster_spec(),
        topology=case.build_topology(),
        faults=case.fault_plan(),
    )
    monitors = case.monitors() if with_monitors else []
    cluster.network.observers.extend(monitors)
    for monitor in monitors:
        monitor.attach(cluster)

    tensors = case.tensors()
    collective = _resolve_collective(case)
    session = collective.prepare(cluster, case.options())
    result = session.allreduce(tensors)
    report.result = result

    # Let in-flight packets (late duplicates, downward results already
    # resolved at the protocol layer) land before conservation checks.
    cluster.sim.run(max_time=cluster.sim.now + DRAIN_GRACE_S)

    report.oracle_problems = check_outputs(result, tensors)
    report.counter_problems = check_counters(
        result,
        expect_faultless=case.fault not in ("crash-failover",),
        expect_reliable=case.fault == "none" and case.transport != "dpdk",
    )
    for monitor in monitors:
        report.violations.extend(monitor.finish())
    expected = dense_oracle(tensors)
    got = np.asarray(result.outputs[0], dtype=np.float64).reshape(-1)
    if got.shape == expected.shape:
        report.max_abs_err = float(np.abs(got - expected).max()) if got.size else 0.0
    return report


def sweep(
    cases: List[ConformanceCase], with_monitors: bool = True
) -> List[CaseReport]:
    """Run every case; never raises on failures (reports carry them)."""
    return [run_case(case, with_monitors=with_monitors) for case in cases]


def default_matrix(level: str = "smoke") -> List[ConformanceCase]:
    """The standard conformance matrix.

    ``smoke`` bounds the sweep for CI: every registry algorithm runs the
    shared axes once, and OmniReduce additionally exercises the fault,
    dtype and transport axes.  ``full`` crosses the shared axes more
    broadly (worker counts, block sizes, every pattern per algorithm).
    """
    if level not in ("smoke", "full"):
        raise ValueError("level must be 'smoke' or 'full'")
    algorithms = sorted(registry.ALGORITHMS)
    cases: List[ConformanceCase] = []

    if level == "smoke":
        for algorithm in algorithms:
            cases.append(ConformanceCase(algorithm=algorithm, pattern="uniform"))
            cases.append(ConformanceCase(algorithm=algorithm, pattern="all-zero"))
        for pattern in ("clustered", "dense"):
            cases.append(ConformanceCase(algorithm="omnireduce", pattern=pattern))
        for dtype in ("float16", "float64"):
            cases.append(ConformanceCase(algorithm="omnireduce", dtype=dtype))
        for transport in ("tcp", "dpdk"):
            cases.append(
                ConformanceCase(algorithm="omnireduce", transport=transport)
            )
        for fault in ("ge-loss", "crash-failover", "straggler"):
            cases.append(
                ConformanceCase(
                    algorithm="omnireduce", transport="dpdk", fault=fault
                )
            )
        # Tiered fabrics: shared-pipe queueing under the packet oracle.
        for topology in ("fat-tree-2x", "fat-tree-4x"):
            cases.append(
                ConformanceCase(algorithm="rackhier", topology=topology)
            )
        cases.append(
            ConformanceCase(algorithm="omnireduce", topology="leaf-spine-2x")
        )
        return cases

    for algorithm in algorithms:
        for pattern in SPARSITY_PATTERNS:
            for workers in (2, 4):
                cases.append(
                    ConformanceCase(
                        algorithm=algorithm, pattern=pattern, workers=workers
                    )
                )
    for block_size in (32, 256):
        cases.append(ConformanceCase(algorithm="omnireduce", block_size=block_size))
    # A non-divisible tail: elements not a multiple of the block size.
    cases.append(
        ConformanceCase(algorithm="omnireduce", elements=2048 - 17, block_size=64)
    )
    for dtype in ("float16", "float64"):
        cases.append(ConformanceCase(algorithm="omnireduce", dtype=dtype))
    for transport in ("tcp", "dpdk"):
        cases.append(ConformanceCase(algorithm="omnireduce", transport=transport))
    for fault in ("bernoulli-loss", "ge-loss", "crash-failover", "straggler"):
        for seed in (0, 1):
            cases.append(
                ConformanceCase(
                    algorithm="omnireduce",
                    transport="dpdk",
                    fault=fault,
                    seed=seed,
                )
            )
    for topology in ("leaf-spine-2x", "fat-tree-2x", "fat-tree-4x"):
        for algorithm in ("omnireduce", "rackhier", "ring"):
            cases.append(
                ConformanceCase(
                    algorithm=algorithm, workers=8, topology=topology
                )
            )
    cases.append(
        ConformanceCase(
            algorithm="rackhier", topology="fat-tree-4x", fault="straggler"
        )
    )
    return cases
