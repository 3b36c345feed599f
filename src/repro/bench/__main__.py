"""Command-line entry point: run any reproduced experiment by id.

Usage::

    python -m repro.bench --list
    python -m repro.bench figure-6 figure-9
    python -m repro.bench all
    python -m repro.bench figure-6 --profile figure6.prof

Each experiment prints the same rows/series the paper's figure or table
reports.  Sizes honour the REPRO_* environment variables documented in
:mod:`repro.bench.harness` (including ``REPRO_JOBS`` for multiprocess
sweep fan-out).

Each experiment's wall time is printed after its table.  ``--profile
FILE`` runs the experiments under cProfile and dumps the stats for
``pstats``/snakeviz (see docs/performance.md); layer-by-layer host cost
and regression gating live in ``perfledger`` (``python -m perfledger
run|compare``).

``--trace FILE`` / ``--metrics FILE`` activate the unified telemetry
layer (:mod:`repro.telemetry`) for every experiment run and export a
Perfetto-loadable Chrome trace and/or a metrics JSON afterwards (see
docs/observability.md).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from typing import Callable, Dict

from . import (
    ablation,
    ablation_streams,
    conformance,
    fig01_scalability,
    fig04_dense_allreduce,
    fig05_rdma_methods,
    fig06_flow,
    fig06_scale,
    fig06_sparse_methods,
    fig07_sparse_scalability,
    fig08_format_conversion,
    fig09_scaling_factor,
    fig10_training_speedup,
    fig11_compression_speedup,
    fig12_compression_loss,
    fig13_multigpu_micro,
    fig14_multigpu_training,
    fig15_block_size,
    fig16_block_sparsity,
    fig17_overlap,
    fig18_p4_aggregator,
    fig20_bitmap_cost,
    fault_recovery,
    fig21_loss_recovery,
    format_table,
    model_validation,
    multijob,
    observatory,
    table1_workloads,
    table2_overlap_breakdown,
)

EXPERIMENTS: Dict[str, Callable] = {
    "figure-1": fig01_scalability,
    "figure-4": fig04_dense_allreduce,
    "figure-5": fig05_rdma_methods,
    "figure-6": fig06_sparse_methods,
    "figure-6-flow": fig06_flow,
    "figure-6-scale": fig06_scale,
    "figure-7": fig07_sparse_scalability,
    "figure-8": fig08_format_conversion,
    "figure-9": fig09_scaling_factor,
    "figure-10": fig10_training_speedup,
    "figure-11": fig11_compression_speedup,
    "figure-12": fig12_compression_loss,
    "figure-13": fig13_multigpu_micro,
    "figure-14": fig14_multigpu_training,
    "figure-15": fig15_block_size,
    "figure-16": fig16_block_sparsity,
    "figure-17": fig17_overlap,
    "figure-18": fig18_p4_aggregator,
    "figure-20": fig20_bitmap_cost,
    "figure-21": fig21_loss_recovery,
    "fault-recovery": fault_recovery,
    "table-1": table1_workloads,
    "table-2": table2_overlap_breakdown,
    "model-validation": model_validation,
    "ablation": ablation,
    "ablation-streams": ablation_streams,
    "conformance": conformance,
    "multijob": multijob,
    "observatory": observatory,
}

#: Accept compact experiment ids too: "figure6" == "figure-6".
_COMPACT_ID = re.compile(r"^(figure|table)(\d+)$")


def canonical_id(name: str) -> str:
    """Normalize an experiment id ("figure6" -> "figure-6")."""
    match = _COMPACT_ID.match(name)
    if match and name not in EXPERIMENTS:
        return f"{match.group(1)}-{match.group(2)}"
    return name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate tables and figures of the OmniReduce paper.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (see --list), or 'all'",
    )
    parser.add_argument(
        "--experiment", action="append", default=[], metavar="ID",
        help="experiment id to run (may repeat; same as positional ids)",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--save", metavar="DIR", default=None,
        help="also write each table to DIR/<experiment-id>.txt",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="with --save, additionally write DIR/<experiment-id>.json",
    )
    parser.add_argument(
        "--profile", metavar="FILE", default=None,
        help="run experiments under cProfile and dump stats to FILE",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record telemetry and write a Chrome-trace-event JSON "
             "(open in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="record telemetry and write the metrics registry as JSON",
    )
    parser.add_argument(
        "--sample-interval", type=float, default=None, metavar="SECONDS",
        help="with --trace, sample per-link utilization and queue depth "
             "every SECONDS of virtual time",
    )
    args = parser.parse_args(argv)
    requested = [
        canonical_id(n) for n in list(args.experiments) + list(args.experiment)
    ]

    if args.list or not requested:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if requested == ["all"] else requested
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use --list to see available ids", file=sys.stderr)
        return 2

    save_dir = None
    if args.save is not None:
        import pathlib

        save_dir = pathlib.Path(args.save)
        save_dir.mkdir(parents=True, exist_ok=True)

    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()

    telemetry = None
    if args.trace is not None or args.metrics is not None:
        from .. import telemetry as tele_mod

        if int(os.environ.get("REPRO_JOBS", "1") or "1") > 1:
            print(
                "warning: REPRO_JOBS>1 runs sweep points in child "
                "processes whose telemetry is not collected; set "
                "REPRO_JOBS=1 for complete traces",
                file=sys.stderr,
            )
        telemetry = tele_mod.Telemetry(
            tele_mod.TelemetryConfig(sample_interval_s=args.sample_interval)
        )
        tele_mod.runtime.activate(telemetry)

    for name in names:
        start = time.time()
        if profiler is not None:
            profiler.enable()
        try:
            result = EXPERIMENTS[name]()
        finally:
            if profiler is not None:
                profiler.disable()
        text = format_table(result)
        print(text)
        print(f"[{name} completed in {time.time() - start:.1f}s]\n")
        if save_dir is not None:
            (save_dir / f"{result.experiment_id}.txt").write_text(text + "\n")
            if args.json:
                (save_dir / f"{result.experiment_id}.json").write_text(
                    result.to_json() + "\n"
                )

    if profiler is not None:
        import pstats

        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(15)
        print(f"profile written to {args.profile}")

    if telemetry is not None:
        from ..telemetry import runtime as tele_runtime

        tele_runtime.deactivate()
        print(telemetry.summary())
        print()
        if args.trace is not None:
            telemetry.write_trace(args.trace)
            print(f"trace written to {args.trace} (open in Perfetto)")
        if args.metrics is not None:
            telemetry.write_metrics(args.metrics)
            print(f"metrics written to {args.metrics}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
