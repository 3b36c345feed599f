"""Per-figure/table experiment harness (see DESIGN.md experiment index)."""

from .convergence import (
    fig11_compression_speedup,
    fig12_compression_loss,
    fig20_bitmap_cost,
)
from .endtoend import (
    fig01_scalability,
    fig09_scaling_factor,
    fig10_training_speedup,
    fig13_multigpu_micro,
    fig14_multigpu_training,
    fig16_block_sparsity,
    table1_workloads,
    table2_overlap_breakdown,
)
from .ablation import ablation
from .conformance import conformance
from .flowmode import fig06_flow
from .scale import fig06_scale
from .faults import fault_recovery
from .multijob import multijob
from .observatory import observatory
from .harness import (
    ExperimentResult,
    cached_tensors,
    format_table,
    job_count,
    parallel_map,
    sample_count,
    tensor_elements,
)
from .micro import (
    ablation_streams,
    fig04_dense_allreduce,
    fig05_rdma_methods,
    fig06_sparse_methods,
    fig07_sparse_scalability,
    fig08_format_conversion,
    fig15_block_size,
    fig17_overlap,
    fig18_p4_aggregator,
    fig21_loss_recovery,
    model_validation,
)

__all__ = [
    "ExperimentResult",
    "format_table",
    "tensor_elements",
    "sample_count",
    "job_count",
    "parallel_map",
    "cached_tensors",
    "fig01_scalability",
    "fig04_dense_allreduce",
    "fig05_rdma_methods",
    "fig06_sparse_methods",
    "fig06_flow",
    "fig06_scale",
    "fig07_sparse_scalability",
    "fig08_format_conversion",
    "fig09_scaling_factor",
    "fig10_training_speedup",
    "fig11_compression_speedup",
    "fig12_compression_loss",
    "fig13_multigpu_micro",
    "fig14_multigpu_training",
    "fig15_block_size",
    "fig16_block_sparsity",
    "fig17_overlap",
    "fig18_p4_aggregator",
    "fig20_bitmap_cost",
    "fig21_loss_recovery",
    "table1_workloads",
    "table2_overlap_breakdown",
    "model_validation",
    "ablation",
    "ablation_streams",
    "conformance",
    "fault_recovery",
    "multijob",
    "observatory",
]
