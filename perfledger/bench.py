"""Run one workload in this process and print its result line.

Untraced (``--trace 0``): set-up, then closed-loop passes for
``--seconds``, reporting the end-to-end metrics.  Traced (``--trace 1``):
set-up, untraced reference passes, then passes under spans and a profiler
hook, then the probes, reporting the per-layer metrics.

Which metrics a run prints, and their units, is read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

from . import layers, load_benchmark, probes
from .spans import NULL_RECORDER, SpanRecorder
from .workloads import COUNT_KEYS, SIZES, WORKLOADS, OpResult

__all__ = ["main"]

#: At least this many timed passes, however short ``--seconds`` is.
MIN_PASSES = 3

#: per-layer count metric -> key into the per-pass exact counts.
_COUNT_METRICS = {
    "netsim.kernel.events": "events",
    "netsim.transport.retransmissions": "retransmissions",
    "netsim.transport.duplicates": "duplicates",
    "netsim.transport.timeouts_fired": "timeouts_fired",
    "netsim.transport.drops": "drops",
    "faults.recovery_events": "recovery_events",
    "core.aggregator.rounds": "rounds",
    "telemetry.spans_recorded": "spans_recorded",
    "telemetry.packet_events_recorded": "packet_events_recorded",
    "observatory.samples": "observatory_samples",
    "observatory.incidents": "observatory_incidents",
    "service.jobs_completed": "jobs_completed",
    "service.jobs_rejected": "jobs_rejected",
    "service.slo_violations": "slo_violations",
}


class Ledger:
    """Failure accounting and the reference result of every cell."""

    def __init__(self) -> None:
        self.attempted = 0
        self.first: Dict[str, OpResult] = {}   # rep 1 of every cell
        self.messages: List[str] = []
        self._failed_units = set()

    @property
    def failed(self) -> int:
        return len(self._failed_units)

    def attempt(self) -> int:
        """Count one attempted unit (an op or a set-up check); returns its number."""
        self.attempted += 1
        return self.attempted

    def fail(self, unit: int, where: str, message: str) -> None:
        """Record a failure of attempted unit ``unit`` (counted once per unit)."""
        self._failed_units.add(unit)
        self.messages.append(f"{where}: {message}")
        print(f"perfledger: FAILED {where}: {message}", file=sys.stderr)

    def op(self, cell, rec, cold=False, profiler=None) -> Optional[OpResult]:
        """Execute one op; count it; return its result (None if it raised).
        Only a cold op keeps its payload: it is the one that gets verified."""
        unit = self.attempt()
        try:
            with rec.span("op", cell.id):
                if profiler is not None:
                    profiler.enable()
                start = time.perf_counter()
                try:
                    raw = cell.run(rec, cold)
                finally:
                    wall = time.perf_counter() - start
                    if profiler is not None:
                        profiler.disable()
            result = cell.summarize(raw)
        except Exception:  # the benchmark must outlive a broken op to report it
            self.fail(unit, cell.id, "raised\n" + traceback.format_exc())
            return None
        result.wall_s = wall
        result.unit = unit
        if not cold:
            result.payload = None
        if not result.complete:
            self.fail(unit, cell.id, "returned complete=False")
        reference = self.first.setdefault(cell.id, result)
        if result.digest_key() != reference.digest_key():
            self.fail(unit, cell.id, "simulated statistics differ from rep 1 of the same cell")
        return result

    def verify(self, cell, result: OpResult, rec) -> float:
        """Oracle check of one op's outputs; returns the max abs error."""
        try:
            with rec.span("verify", cell.id):
                problems, max_err = cell.verify(result)
        except Exception:  # outputs too broken to be checked are wrong outputs
            problems, max_err = ["check raised\n" + traceback.format_exc()], 0.0
        for problem in problems:
            self.fail(result.unit, cell.id, problem)
        result.payload = None
        return max_err


def _setup(workload, sizes, seed, ledger, rec):
    """Generate the inputs, run every cell once, cold, and check each
    result against the oracle.  Returns the cells, the set-up's wall time
    without the checks, and set-up details."""
    start = time.perf_counter()
    with rec.span("setup.inputs"):
        cells = workload.make_cells(seed, **sizes)
    inputs_s = time.perf_counter() - start
    verify_s = max_err = cold_s = flow_err = 0.0
    results: Dict[str, OpResult] = {}
    for cell in cells:
        result = ledger.op(cell, rec, cold=True)
        if result is None:
            continue
        cold_s += result.wall_s
        results[cell.id] = result
        t0 = time.perf_counter()
        max_err = max(max_err, ledger.verify(cell, result, rec))
        verify_s += time.perf_counter() - t0
    t0 = time.perf_counter()
    unit = ledger.attempt()  # the checks across cells count as one more unit
    try:
        for problem in workload.cross_check(results):
            ledger.fail(unit, workload.name, problem)
        if workload.flow_pair is not None:
            problems, flow_err = workload.flow_pair(seed, **sizes)
            for problem in problems:
                ledger.fail(unit, "flow-pair", problem)
    except Exception:  # e.g. a cell the cross-check needs failed its cold op
        ledger.fail(unit, workload.name, "check raised\n" + traceback.format_exc())
    verify_s += time.perf_counter() - t0
    setup_s = time.perf_counter() - start - verify_s
    return cells, setup_s, dict(
        inputs_s=inputs_s, verify_s=verify_s, max_err=max_err, cold_s=cold_s, flow_err=flow_err
    )


def _passes(cells, ledger, rec, seconds: float, min_passes: int, profiler=None):
    """Closed loop, one client: rep 1 of every cell, then rep 2, ...
    Returns the number of passes and every op's wall time by cell."""
    walls: Dict[str, List[float]] = {cell.id: [] for cell in cells}
    done = 0
    start = time.perf_counter()
    while done < min_passes or time.perf_counter() - start < seconds:
        for cell in cells:
            result = ledger.op(cell, rec, profiler=profiler)
            if result is not None:
                walls[cell.id].append(result.wall_s)
        done += 1
    return done, walls


def _medians(walls: Dict[str, List[float]]) -> Dict[str, float]:
    return {cell_id: statistics.median(values) for cell_id, values in walls.items() if values}


def _pass_counts(ledger: Ledger) -> Dict[str, int]:
    """Exact counts of one pass: rep 1 of every cell, summed."""
    counts = {key: sum(r.counts[key] for r in ledger.first.values()) for key in COUNT_KEYS}
    counts["packets"] = sum(r.packets for r in ledger.first.values())
    counts["wire_bytes"] = sum(r.wire_bytes for r in ledger.first.values())
    return counts


def _sim_digest(ledger: Ledger) -> str:
    blob = repr(sorted((cid, r.digest_key()) for cid, r in ledger.first.items()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_untraced(workload, sizes, seed, seconds, import_span):
    """Returns (metric values, ledger, details for ``--out``)."""
    ledger = Ledger()
    import_s = import_span[1] - import_span[0]
    cells, setup_s, setup = _setup(workload, sizes, seed, ledger, NULL_RECORDER)
    passes, walls = _passes(cells, ledger, NULL_RECORDER, seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    medians = _medians(walls)
    pass_wall_s = sum(medians.values())
    counts = _pass_counts(ledger)
    family = [ledger.first[c.id] for c in cells if c.family and c.id in ledger.first]
    values = {
        "pass_wall_s": pass_wall_s,
        "sim_packets_per_host_s": counts["packets"] / pass_wall_s if pass_wall_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "sim_time_s": sum(r.sim_time_s for r in family),
        "sim_wire_bytes": float(sum(r.wire_bytes for r in family)),
        "setup_s": import_s + setup_s,
    }
    detail = dict(
        passes=passes, import_s=import_s, cold_op_wall_s=setup["cold_s"], counts=counts,
        cells={cid: dict(median_wall_s=m, ops=len(walls[cid])) for cid, m in medians.items()},
    )
    return values, ledger, detail


def _tail(walls: List[float]):
    """The highest percentile with at least ten ops beyond it (the
    maximum when there are fewer than twenty ops), and its value."""
    ordered = sorted(walls)
    if len(ordered) < 20:
        return 100.0, ordered[-1]
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def run_traced(workload, sizes, seed, seconds, import_span):
    """Returns (metric values, ledger, details for ``--out``, span recorder)."""
    ledger = Ledger()
    rec = SpanRecorder()
    rec.add("setup.import", *import_span)
    cells, _setup_s, setup = _setup(workload, sizes, seed, ledger, rec)

    # Reference passes: tracing off, same process, same inputs.
    _, walls = _passes(cells, ledger, NULL_RECORDER, seconds / 2.0, 2)
    reference = _medians(walls)
    reference_walls = [w for values in walls.values() for w in values]
    ref_pass = sum(reference.values())
    spread = 0.0
    for cid, values in walls.items():
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = max(spread, (q3 - q1) / reference[cid])

    profiler = cProfile.Profile()
    first_traced_span = len(rec.spans)
    traced_passes, walls = _passes(cells, ledger, rec, seconds / 2.0, 1, profiler=profiler)
    traced_wall = sum(sum(v) for v in walls.values()) / traced_passes
    shares = layers.apportion(profiler)
    export_s = sum(s.duration for s in rec.spans[first_traced_span:] if s.name == "export")

    first = ledger.first
    counts = _pass_counts(ledger)
    packets = counts["packets"]
    self_s = {layer: value / traced_passes for layer, value in shares["self_s"].items()}

    def ns_per_packet(layer: str) -> float:
        return self_s[layer] * 1e9 / packets if packets else 0.0

    metrics: Dict[str, float] = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = shares["calls"][layer] / traced_passes
    for name, key in _COUNT_METRICS.items():
        metrics[name] = counts[key]
    tail_pct, tail_s = _tail(reference_walls)
    on = next((cid for cid in first if cid.endswith("taps-on")), None)
    off = next((cid for cid in first if cid.endswith("taps-off")), None)
    ring, omni = first.get("deeplight/ring/tcp"), first.get("deeplight/omnireduce/dpdk")
    kernel_self = self_s["netsim.kernel"]
    metrics.update({
        "netsim.network.packets": packets,
        "netsim.network.wire_bytes": counts["wire_bytes"],
        "netsim.kernel.events_per_self_s": counts["events"] / kernel_self if kernel_self else 0.0,
        "netsim.network.self_ns_per_packet": ns_per_packet("netsim.network"),
        "core.flowreduce.self_ns_per_wire_packet": ns_per_packet("core.flowreduce"),
        "core.rackreduce.self_ns_per_wire_packet": ns_per_packet("core.rackreduce"),
        "telemetry.tap_overhead_share":
            (reference[on] - reference[off]) / reference[off] if on and off else 0.0,
        "telemetry.export_s": export_s / traced_passes,
        "service.sim_completion_p50_s": first[on].extras["completion_p50_s"] if on else 0.0,
        "service.sim_completion_p99_s": first[on].extras["completion_p99_s"] if on else 0.0,
        "ddl.sim_speedup_over_ring": ring.sim_time_s / omni.sim_time_s if ring and omni else 0.0,
        "conformance.verify_s": setup["verify_s"],
        "conformance.oracle_max_abs_err": setup["max_err"],
        "conformance.flow_time_rel_err": setup["flow_err"],
        "bench.input_gen_s": setup["inputs_s"],
        "bench.cold_op_wall_s": setup["cold_s"],
        "bench.op_wall_tail_s": tail_s,
        "bench.op_wall_tail_percentile": tail_pct,
        "bench.timed_ops": len(reference_walls),
        "bench.rep_spread": spread,
        "bench.numpy_share": shares["numpy_share"],
        "bench.trace_overhead_share": traced_wall / ref_pass - 1.0 if ref_pass else 0.0,
        "bench.traced_pass_wall_s": traced_wall,
    })
    metrics.update(probes.run_all())
    detail = dict(
        passes=traced_passes, import_s=import_span[1] - import_span[0], counts=counts,
        profiled_s=shares["total_s"] / traced_passes, reference_pass_wall_s=ref_pass,
    )
    return metrics, ledger, detail, rec


def _parse(argv, benchmark) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfledger/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every cell and code path, seconds not minutes")
    parser.add_argument("--out", help="also write the full result (digest, counts, cells) here")
    parser.add_argument("--trace-out", help="traced run: write the spans here at exit")
    return parser.parse_args(argv)


def main(argv, import_span) -> int:
    """``import_span`` is (start, end) of the imports, on ``perf_counter``."""
    benchmark = load_benchmark()
    args = _parse(argv, benchmark)
    workload = WORKLOADS[args.workload]
    sizes = SIZES[args.workload]["smoke" if args.smoke else "full"]
    if args.trace:
        listed = benchmark["per_layer"]
        values, ledger, detail, recorder = run_traced(
            workload, sizes, args.seed, args.seconds, import_span
        )
        if args.trace_out:
            recorder.write(args.trace_out)
    else:
        listed = benchmark["end_to_end"]
        values, ledger, detail = run_untraced(workload, sizes, args.seed, args.seconds, import_span)
    units = {metric["name"]: metric["unit"] for metric in listed}
    if set(units) != set(values):
        raise SystemExit(
            f"perfledger: BENCHMARK.json and the run disagree on {sorted(set(units) ^ set(values))}"
        )
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out:
        full = dict(
            result, schema=1, workload=args.workload, seed=args.seed, trace=args.trace,
            smoke=args.smoke, failures=ledger.messages, sim_digest=_sim_digest(ledger),
            failed_share=ledger.failed / ledger.attempted, **detail,
        )
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0
