"""The ablation harness: cells as conformance cases, run ids, metrics,
deltas, ranking."""

import numpy as np
import pytest

from repro.ablation import (
    AblationReport,
    ablation_elements,
    default_cells,
    run_ablation,
    run_cell,
)
from repro.ablation.harness import RUN_METRICS
from repro.bench.harness import cached_tensors
from repro.conformance import ConformanceCase
from repro.core.features import FEATURES
from repro.ddl.workloads import WORKLOADS

pytestmark = pytest.mark.ablation

#: Small enough for CI, big enough that suppression/fusion show deltas.
TINY = dict(elements=1 << 14, workers=4, aggregators=4)


def _cell(workload="deeplight", fault="none", **changes) -> ConformanceCase:
    (case,) = default_cells(
        workloads=(workload,), faults=(fault,), **{**TINY, **changes}
    )
    return case


@pytest.fixture(scope="module")
def none_cell_report():
    return run_cell(_cell())


@pytest.fixture(scope="module")
def lossy_cell_report():
    return run_cell(_cell(fault="bernoulli-loss"))


class TestCell:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown pattern 'gpt17'"):
            default_cells(workloads=("gpt17",), faults=("none",))

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            default_cells(workloads=("bert",), faults=("meteor-strike",))

    def test_transport_follows_fault(self):
        assert _cell("bert").transport == "rdma"
        assert _cell("bert", "bernoulli-loss").transport == "dpdk"
        assert _cell("bert", "ge-loss").transport == "dpdk"
        assert _cell("bert", "straggler").transport == "rdma"

    def test_block_sparsity_is_one_minus_comm_fraction(self):
        """A workload pattern is the bench layer's seeded block-sparse
        generator at ``1 - comm_fraction``, bit for bit."""
        for workload in ("deeplight", "vgg19"):
            case = _cell(workload)
            expected = cached_tensors(
                case.workers,
                case.elements,
                1.0 - WORKLOADS[workload].comm_fraction,
                seed=case.seed,
                block_size=case.block_size,
            )
            got = case.tensors()
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_lossy_baseline_enables_backoff(self):
        lossless = _cell("bert")
        lossy = _cell("bert", "bernoulli-loss")
        assert not lossless.config().features.enabled("retransmit_backoff")
        assert lossy.config().features.enabled("retransmit_backoff")

    def test_default_cells_cross_product(self):
        cells = default_cells(
            workloads=("deeplight", "bert"), faults=("none",), elements=4096
        )
        assert [(c.pattern, c.fault) for c in cells] == [
            ("deeplight", "none"),
            ("bert", "none"),
        ]
        assert all(c.elements == 4096 for c in cells)
        assert all(
            (c.algorithm, c.workers, c.block_size) == ("omnireduce", 8, 256)
            for c in cells
        )

    def test_ablation_elements_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ABLATION_ELEMENTS", "8192")
        assert ablation_elements() == 8192
        assert default_cells(workloads=("ncf",), faults=("none",))[0].elements == 8192
        monkeypatch.setenv("REPRO_ABLATION_ELEMENTS", "0")
        with pytest.raises(ValueError):
            ablation_elements()


class TestCellReport:
    def test_stable_run_ids(self, none_cell_report):
        ids = [run.run_id for run in none_cell_report.runs]
        assert ids[0] == "deeplight-none-baseline"
        assert "deeplight-none-no-fusion" in ids
        assert all(not run_id.endswith("-flow") for run_id in ids)
        assert none_cell_report.cell_id == "deeplight-none"

    def test_one_delta_row_per_catalog_feature(self, none_cell_report):
        assert [d.feature for d in none_cell_report.deltas] == list(FEATURES)

    def test_every_run_oracle_exact(self, none_cell_report):
        """Every run passed the oracle, the counters and the monitors."""
        assert none_cell_report.ok
        for run in none_cell_report.runs:
            assert run.correct, run.report.summary()
            assert run.report.max_abs_err < 1e-3

    def test_metrics_read_from_registry(self, none_cell_report):
        baseline = none_cell_report.baseline
        assert set(baseline.metrics) == set(RUN_METRICS)
        assert baseline.metrics["time_s"] > 0
        assert baseline.metrics["bytes_on_wire"] > 0
        assert baseline.metrics["goodput_gbps"] > 0
        assert baseline.metrics["retransmissions"] == 0

    def test_every_row_compares_against_the_cell_baseline(self, none_cell_report):
        for delta in none_cell_report.deltas:
            assert delta.baseline is none_cell_report.baseline

    def test_backoff_skipped_without_loss(self, none_cell_report):
        delta = next(
            d
            for d in none_cell_report.deltas
            if d.feature == "retransmit_backoff"
        )
        assert not delta.measured
        assert "inactive" in delta.skipped

    def test_suppression_delta_dominates(self, none_cell_report):
        """On a 99.3%-block-sparse workload, zero-block suppression is
        the headline mechanism: disabling it explodes wire bytes."""
        ranked = none_cell_report.ranked()
        assert ranked[0].feature == "zero_block_suppression"
        assert ranked[0].bytes_delta > 5.0
        assert ranked[0].time_delta > 0.5

    def test_lossy_cell_measures_backoff(self, lossy_cell_report):
        assert lossy_cell_report.ok
        by_feature = {d.feature: d for d in lossy_cell_report.deltas}
        assert by_feature["retransmit_backoff"].measured
        assert all(d.measured for d in lossy_cell_report.deltas)
        assert lossy_cell_report.baseline.metrics["retransmissions"] > 0
        # The row runs the feature set its case id names.
        run = by_feature["retransmit_backoff"].run
        assert "no-retransmit_backoff" in run.report.case.case_id
        assert run.report.case.config().features.backoff_factor == 1.0


class TestReport:
    def test_run_ablation_aggregates_cells(
        self, none_cell_report, lossy_cell_report
    ):
        report = AblationReport(cells=[none_cell_report, lossy_cell_report])
        assert report.ok
        assert len(report.runs()) == len(none_cell_report.runs) + len(
            lossy_cell_report.runs
        )
        ranking = report.ranking()
        names = [name for name, _, _ in ranking]
        assert "zero_block_suppression" in names
        # Importance is sorted most-slowdown-first.
        means = [mean for _, mean, _ in ranking]
        assert means == sorted(means, reverse=True)
        # backoff was measured only in the lossy cell.
        backoff = next(item for item in ranking if item[0] == "retransmit_backoff")
        assert backoff[2] == 1

    def test_run_ablation_default_collective(self):
        """Cells run the registry's OmniReduce unless the case names a
        mutant."""
        report = run_ablation([_cell("ncf")])
        assert report.ok
        assert report.cells[0].baseline.run_id == "ncf-none-baseline"
        assert report.cells[0].case.mutant == ""


class TestMonitors:
    def test_ablation_flags_zero_block_spam(self):
        """Zero-block spam leaves every sum exact, so only the
        NoZeroBlockMonitor sees it: each run whose case promises
        suppression is flagged by a monitor and none by the oracle."""
        report = run_cell(_cell(mutant="zero-block-spam"))
        assert not report.ok
        for run in report.runs:
            assert not run.report.oracle_problems
            promises = run.report.case.config().features.zero_block_suppression
            flagged = {v.monitor for v in run.report.violations}
            assert flagged == ({"no-zero-block"} if promises else set()), (
                run.run_id,
                flagged,
            )
        flagged_runs = [run for run in report.runs if not run.correct]
        assert len(flagged_runs) == len(report.runs) - 1


class TestExperiment:
    def test_bench_experiment_smoke(self, monkeypatch):
        monkeypatch.setenv("REPRO_ABLATION_WORKLOADS", "deeplight")
        monkeypatch.setenv("REPRO_ABLATION_FAULTS", "none")
        monkeypatch.setenv("REPRO_ABLATION_ELEMENTS", str(1 << 14))
        from repro.bench import ablation

        result = ablation()
        assert result.experiment_id == "ablation"
        run_ids = result.column("run_id")
        assert "deeplight-none-baseline" in run_ids
        assert "deeplight-none-no-zero_block_suppression" in run_ids
        # One baseline row plus one row per catalog feature.
        assert len(result.rows) == 1 + len(FEATURES)
        assert all(c in ("yes", "-") for c in result.column("correct"))
        assert any("importance ranking" in note for note in result.notes)
        assert any("skipped" in note for note in result.notes)
