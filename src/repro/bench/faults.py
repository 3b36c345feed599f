"""Fault-injection sweep: recovery cost under injected failures.

Extends Appendix D's loss-recovery study (figure 21) from uniform random
drops to the full :mod:`repro.faults` repertoire: Gilbert-Elliott bursty
loss at calibrated stationary rates, an aggregator crash with slot
failover, a straggling worker, and a deadline that forces a partial
result.  Every scenario is compared against the same zero-fault baseline
row, and every row reports the recovery counters that
:class:`~repro.core.collective.CollectiveResult` now carries uniformly.
"""

from __future__ import annotations

import numpy as np

from ..baselines import OmniReduceOptions, prepare
from ..core.config import OmniReduceConfig
from ..faults import AggregatorCrash, FaultPlan, StragglerSchedule
from ..netsim.cluster import Cluster, ClusterSpec
from ..netsim.loss import GilbertElliottLoss
from ..tensors import block_sparse_tensors
from .harness import (
    DEFAULT_BLOCK_SIZE,
    ExperimentResult,
    sample_count,
    tensor_elements,
)

__all__ = ["fault_recovery"]

#: Mean burst length (packets) for the Gilbert-Elliott sweeps; the bad
#: state drops everything, so this is also the mean loss-run length.
MEAN_BURST_PACKETS = 4.0


def _tensors(workers, elements, seed):
    return block_sparse_tensors(
        workers, elements, DEFAULT_BLOCK_SIZE, 0.9,
        overlap="random", rng=np.random.default_rng(seed),
    )


def _spec(workers):
    return ClusterSpec(
        workers=workers, aggregators=workers,
        bandwidth_gbps=10.0, transport="dpdk",
    )


def fault_recovery() -> ExperimentResult:
    """``fault-recovery``: AllReduce under injected faults (App. D ext.)."""
    elements = tensor_elements(1.0)
    workers = 4
    samples = sample_count()
    config = OmniReduceConfig(timeout_s=300e-6)
    result = ExperimentResult(
        "fault-recovery",
        "OmniReduce AllReduce under injected faults (dpdk, 4 workers)",
        [
            "scenario", "time_ms", "retransmissions", "timeouts",
            "recovery_events", "complete", "max_abs_err",
        ],
    )

    def run(scenario, plan, cfg=config):
        times, retx, timeouts, events = [], [], [], []
        complete = True
        max_err = 0.0
        for i in range(samples):
            tensors = _tensors(workers, elements, seed=i)
            expected = np.sum(tensors, axis=0)
            cluster = Cluster(_spec(workers), faults=plan)
            res = prepare(
                "omnireduce", cluster, OmniReduceOptions(config=cfg)
            ).allreduce(tensors)
            times.append(res.time_s)
            retx.append(res.retransmissions)
            timeouts.append(res.timeouts_fired)
            events.append(res.recovery_events)
            complete = complete and res.complete
            if res.complete:
                max_err = max(max_err, float(np.abs(res.output - expected).max()))
        result.add_row(
            scenario=scenario,
            time_ms=float(np.mean(times)) * 1e3,
            retransmissions=float(np.mean(retx)),
            timeouts=float(np.mean(timeouts)),
            recovery_events=float(np.mean(events)),
            complete=complete,
            max_abs_err=max_err,
        )

    # Appendix D zero-fault baseline: every counter must stay at zero.
    run("baseline", None)

    # Gilbert-Elliott bursty loss at calibrated stationary rates.
    for rate in (1e-3, 1e-2):
        loss = GilbertElliottLoss.from_stationary_rate(
            rate, mean_burst_packets=MEAN_BURST_PACKETS,
            rng=np.random.default_rng(7),
        )
        run(f"ge-loss-{rate:.2%}", FaultPlan(loss=loss))

    # Aggregator shard 0 crashes mid-collective and fails over to shard 1.
    run("crash-failover", FaultPlan(aggregator_crashes=(
        AggregatorCrash(shard=0, time_s=50e-6, restart_delay_s=100e-6,
                        failover_shard=1),
    )))

    # One worker starts late and runs on a half-speed NIC.
    run("straggler", FaultPlan(stragglers=(
        StragglerSchedule(worker=0, delay_s=200e-6, slowdown=2.0),
    )))

    # A deadline tighter than the straggler's handicap: the collective
    # must return a partial result with an explicit staleness report.
    run("deadline-partial", FaultPlan(stragglers=(
        StragglerSchedule(worker=0, delay_s=5e-3),
    )), cfg=OmniReduceConfig(timeout_s=300e-6, deadline_s=2e-3))

    baseline = result.row_where(scenario="baseline")
    result.notes.append(
        "baseline row doubles as the zero-fault reference: its "
        "retransmission/timeout/recovery counters are all zero"
    )
    result.notes.append(
        f"baseline time {baseline['time_ms']:.3f} ms; loss and straggler "
        "rows show graceful degradation, deadline-partial reports "
        "complete=False with a staleness report"
    )
    return result
