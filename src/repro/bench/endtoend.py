"""End-to-end experiments: Figures 1, 9, 10, 13, 14, 16 and Tables 1-2.

These run the six Table 1 workloads through the training-iteration
simulator (scaled gradients with the measured sparsity structure,
two-point extrapolation of communication time to the full model size).
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from ..ddl import WORKLOADS, GradientModel, TrainingSimulator
from ..netsim import ClusterSpec
from ..tensors import block_sparsity, density_within_nonzero_blocks, overlap_breakdown
from .harness import ExperimentResult, sample_count

__all__ = [
    "fig01_scalability",
    "fig09_scaling_factor",
    "fig10_training_speedup",
    "fig13_multigpu_micro",
    "fig14_multigpu_training",
    "fig16_block_sparsity",
    "table1_workloads",
    "table2_overlap_breakdown",
]


def _scale_elements(default: int = 1 << 19) -> int:
    return int(os.environ.get("REPRO_DDL_SCALE", default))


def _simulator(name: str) -> TrainingSimulator:
    return TrainingSimulator(
        WORKLOADS[name],
        scale_elements=_scale_elements(),
        samples=sample_count(),
    )


def _spec_10g(transport="tcp", workers=8, **kw):
    return ClusterSpec(
        workers=workers, aggregators=8, bandwidth_gbps=10, transport=transport, **kw
    )


def _spec_100g(transport="rdma", workers=8, **kw):
    return ClusterSpec(
        workers=workers, aggregators=8, bandwidth_gbps=100, transport=transport, **kw
    )


def fig01_scalability() -> ExperimentResult:
    """Figure 1: NCCL scaling factors of six workloads vs workers, 10G."""
    result = ExperimentResult(
        "figure-1",
        "Scaling factor of six DDL workloads (NCCL ring, 10 Gbps)",
        ["workload", "workers_2", "workers_4", "workers_8"],
    )
    for name in WORKLOADS:
        sim = _simulator(name)
        row: Dict[str, object] = {"workload": name}
        for workers in (2, 4, 8):
            report = sim.measure("ring", _spec_10g(workers=workers))
            row[f"workers_{workers}"] = report.scaling_factor
        result.add_row(**row)
    result.notes.append(
        "paper: large models scale terribly (DeepLight sf=0.044 at 8 "
        "workers); ResNet152 near-linear"
    )
    return result


def fig09_scaling_factor() -> ExperimentResult:
    """Figure 9: scaling factor, NCCL vs OmniReduce (8 workers, 10G)."""
    result = ExperimentResult(
        "figure-9",
        "Scaling factor at 8 workers, 10 Gbps",
        ["workload", "nccl", "omnireduce", "paper_nccl"],
    )
    from ..ddl import NCCL_SCALING_FACTOR_8W_10G

    for name in WORKLOADS:
        sim = _simulator(name)
        nccl = sim.measure("ring", _spec_10g())
        omni = sim.measure("omnireduce", _spec_10g(transport="dpdk"))
        result.add_row(
            workload=name,
            nccl=nccl.scaling_factor,
            omnireduce=omni.scaling_factor,
            paper_nccl=NCCL_SCALING_FACTOR_8W_10G[name],
        )
    result.notes.append(
        "paper OmniReduce sf: 0.362, 0.639, 0.382, 0.362, 0.859, 0.991"
    )
    return result


def fig10_training_speedup() -> ExperimentResult:
    """Figure 10: end-to-end training speedup over NCCL, 10 and 100 Gbps."""
    result = ExperimentResult(
        "figure-10",
        "Training throughput speedup over dense AllReduce (NCCL)",
        ["workload", "omni_10g", "switchml_10g", "omni_100g", "paper_10g",
         "paper_100g"],
    )
    paper = {
        "deeplight": (8.2, 2.9), "lstm": (5.3, 1.4), "ncf": (2.2, 1.5),
        "bert": (1.3, 1.0), "vgg19": (1.7, 1.0), "resnet152": (1.0, 1.0),
    }
    for name in WORKLOADS:
        sim = _simulator(name)
        nccl_10 = sim.measure("ring", _spec_10g())
        omni_10 = sim.measure("omnireduce", _spec_10g(transport="dpdk"))
        swml_10 = sim.measure("switchml", _spec_10g(transport="dpdk"))
        nccl_100 = sim.measure("ring", _spec_100g())
        omni_100 = sim.measure("omnireduce", _spec_100g(gdr=True))
        result.add_row(
            workload=name,
            omni_10g=omni_10.speedup_over(nccl_10),
            switchml_10g=swml_10.speedup_over(nccl_10),
            omni_100g=omni_100.speedup_over(nccl_100),
            paper_10g=paper[name][0],
            paper_100g=paper[name][1],
        )
    result.notes.append(
        "paper: speedup tracks gradient sparsity; dense models gain only "
        "from streaming aggregation (= SwitchML*)"
    )
    return result


def fig13_multigpu_micro() -> ExperimentResult:
    """Figure 13: multi-GPU microbenchmark (6 servers x 8 GPUs, 100G)."""
    from ..baselines import prepare
    from ..core.hierarchical import HierarchicalAllReduce
    from ..netsim import Cluster
    from ..tensors import block_sparse_tensors
    from .harness import tensor_elements

    # 100 Gbps regime: scale the tensor up (as in Figure 4/5) and use
    # GDR so fixed costs and the PCIe floor do not mask the comparison.
    elements = tensor_elements(2.0) * 4
    servers, gpus = 6, 8
    result = ExperimentResult(
        "figure-13",
        "Multi-GPU AllReduce time (ms), 6 servers x 8 GPUs, 100 Gbps",
        ["sparsity", "nccl", "omnireduce"],
    )
    samples = sample_count()
    for sparsity in (0.0, 0.6, 0.9, 0.99):
        def run(algorithm, i):
            rng = np.random.default_rng(i)
            per_gpu = [
                block_sparse_tensors(gpus, elements, 256, sparsity, rng=rng)
                for _ in range(servers)
            ]
            spec = ClusterSpec(
                workers=servers, aggregators=6, bandwidth_gbps=100,
                transport="rdma", gdr=(algorithm == "omnireduce"),
            )
            session = prepare(algorithm, Cluster(spec))
            hier = HierarchicalAllReduce(
                session.cluster, gpus_per_server=gpus, inner=session.engine
            )
            return hier.allreduce(per_gpu).time_s

        nccl = float(np.mean([run("ring", i) for i in range(samples)]))
        omni = float(np.mean([run("omnireduce", i) for i in range(samples)]))
        result.add_row(
            sparsity=int(sparsity * 100), nccl=nccl * 1e3, omnireduce=omni * 1e3
        )
    result.notes.append("paper: up to 2.5x over NCCL at 99% sparsity")
    return result


def fig14_multigpu_training() -> ExperimentResult:
    """Figure 14: multi-GPU end-to-end speedup (6 x 8 GPUs)."""
    result = ExperimentResult(
        "figure-14",
        "Multi-GPU training speedup over NCCL (6 servers x 8 GPUs)",
        ["workload", "speedup", "paper"],
    )
    paper = {
        "deeplight": 2.6, "lstm": 1.3, "ncf": 1.3, "bert": 1.0,
        "vgg19": 1.1, "resnet152": 1.0,
    }
    spec = ClusterSpec(
        workers=6, aggregators=6, bandwidth_gbps=100, transport="rdma"
    )
    for name in WORKLOADS:
        sim = _simulator(name)
        omni = sim.measure_multi_gpu(spec.with_(gdr=True), gpus_per_server=8)
        nccl = sim.measure_multi_gpu(spec, gpus_per_server=8, algorithm="ring")
        result.add_row(
            workload=name, speedup=omni.speedup_over(nccl), paper=paper[name]
        )
    result.notes.append(
        "paper: smaller speedups than single-GPU because the intra-server "
        "union densifies the gradient"
    )
    return result


def fig16_block_sparsity() -> ExperimentResult:
    """Figure 16: block sparsity and within-block density vs block size."""
    result = ExperimentResult(
        "figure-16",
        "Gradient block sparsity / density within non-zero blocks",
        ["workload", "metric", "bs_1", "bs_32", "bs_64", "bs_128", "bs_256"],
    )
    elements = _scale_elements()
    for name in WORKLOADS:
        tensor = GradientModel(WORKLOADS[name]).generate(
            1, elements, np.random.default_rng(0)
        )[0]
        sparsity_row: Dict[str, object] = {"workload": name, "metric": "block_sparsity"}
        density_row: Dict[str, object] = {"workload": name, "metric": "within_density"}
        for bs in (1, 32, 64, 128, 256):
            sparsity_row[f"bs_{bs}"] = block_sparsity(tensor, bs)
            density_row[f"bs_{bs}"] = density_within_nonzero_blocks(tensor, bs)
        result.add_row(**sparsity_row)
        result.add_row(**density_row)
    result.notes.append(
        "paper: embedding models keep block sparsity at packet-size blocks "
        "and high within-block density; CV models lose element sparsity by "
        "block size ~32"
    )
    return result


def table1_workloads() -> ExperimentResult:
    """Table 1: workload characteristics + measured OmniReduce volume."""
    result = ExperimentResult(
        "table-1",
        "Benchmark DNN workloads",
        ["workload", "batch", "dense_mb", "embedding_mb", "sparsity_pct",
         "comm_pct_spec", "comm_pct_measured"],
    )
    elements = _scale_elements()
    for name, spec in WORKLOADS.items():
        tensors = GradientModel(spec).generate(8, elements, np.random.default_rng(0))
        measured = 1 - block_sparsity(tensors[0], 256)
        result.add_row(
            workload=name,
            batch=spec.batch_size,
            dense_mb=spec.dense_bytes / 1e6,
            embedding_mb=spec.embedding_bytes / 1e6,
            sparsity_pct=spec.element_sparsity * 100,
            comm_pct_spec=spec.comm_fraction * 100,
            comm_pct_measured=measured * 100,
        )
    return result


def table2_overlap_breakdown() -> ExperimentResult:
    """Table 2: communication breakdown by overlap count (8 workers)."""
    result = ExperimentResult(
        "table-2",
        "Share of transmitted blocks by number of overlapping workers (%)",
        ["workload", "none", "c2", "c3", "c4", "c5", "c6", "c7", "all",
         "paper_none", "paper_all"],
    )
    paper = {
        "deeplight": (59.49, 13.62), "lstm": (18.10, 72.61),
        "ncf": (27.48, 7.85), "bert": (0.60, 99.20),
        "vgg19": (0.03, 98.79), "resnet152": (0.01, 99.96),
    }
    elements = _scale_elements()
    for name, spec in WORKLOADS.items():
        tensors = GradientModel(spec).generate(8, elements, np.random.default_rng(0))
        breakdown = overlap_breakdown(tensors, 256)
        result.add_row(
            workload=name,
            none=breakdown.get(1, 0.0) * 100,
            c2=breakdown.get(2, 0.0) * 100,
            c3=breakdown.get(3, 0.0) * 100,
            c4=breakdown.get(4, 0.0) * 100,
            c5=breakdown.get(5, 0.0) * 100,
            c6=breakdown.get(6, 0.0) * 100,
            c7=breakdown.get(7, 0.0) * 100,
            all=breakdown.get(8, 0.0) * 100,
            paper_none=paper[name][0],
            paper_all=paper[name][1],
        )
    return result
