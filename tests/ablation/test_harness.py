"""The ablation harness: cells, run ids, metrics, deltas, ranking."""

import pytest

from repro.ablation import (
    AblationCell,
    AblationReport,
    ablation_elements,
    default_cells,
    run_ablation,
    run_cell,
)
from repro.ablation.harness import RUN_METRICS
from repro.core.features import DEFAULT_FEATURES, FEATURES

pytestmark = pytest.mark.ablation

#: Small enough for CI, big enough that suppression/fusion show deltas.
TINY = dict(elements=1 << 14, workers=4, aggregators=4, block_size=256)


@pytest.fixture(scope="module")
def none_cell_report():
    return run_cell(AblationCell(workload="deeplight", fault="none", **TINY))


@pytest.fixture(scope="module")
def lossy_cell_report():
    return run_cell(
        AblationCell(workload="deeplight", fault="bernoulli-loss", **TINY)
    )


class TestCell:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            AblationCell(workload="gpt17")

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            AblationCell(workload="bert", fault="meteor-strike")

    def test_transport_follows_fault(self):
        assert AblationCell(workload="bert").transport == "rdma"
        assert (
            AblationCell(workload="bert", fault="bernoulli-loss").transport
            == "dpdk"
        )

    def test_block_sparsity_is_one_minus_comm_fraction(self):
        assert AblationCell(workload="vgg19").block_sparsity == 0.0
        assert AblationCell(workload="deeplight").block_sparsity == pytest.approx(
            0.993
        )

    def test_lossy_baseline_enables_backoff(self):
        lossless = AblationCell(workload="bert")
        lossy = AblationCell(workload="bert", fault="bernoulli-loss")
        assert not lossless.baseline_features().enabled("retransmit_backoff")
        assert lossy.baseline_features().enabled("retransmit_backoff")

    def test_default_cells_cross_product(self):
        cells = default_cells(
            workloads=("deeplight", "bert"), faults=("none",), elements=4096
        )
        assert [c.cell_id for c in cells] == ["deeplight-none", "bert-none"]
        assert all(c.elements == 4096 for c in cells)

    def test_ablation_elements_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ABLATION_ELEMENTS", "8192")
        assert ablation_elements() == 8192
        monkeypatch.setenv("REPRO_ABLATION_ELEMENTS", "0")
        with pytest.raises(ValueError):
            ablation_elements()


class TestCellReport:
    def test_stable_run_ids(self, none_cell_report):
        ids = [run.run_id for run in none_cell_report.runs]
        assert ids[0] == "deeplight-none-baseline"
        assert "deeplight-none-no-fusion" in ids
        assert all(not run_id.endswith("-flow") for run_id in ids)

    def test_one_delta_row_per_catalog_feature(self, none_cell_report):
        assert [d.feature for d in none_cell_report.deltas] == list(FEATURES)

    def test_every_run_oracle_exact(self, none_cell_report):
        assert none_cell_report.ok
        for run in none_cell_report.runs:
            assert run.correct
            assert run.max_abs_err < 1e-3

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
        report = run_ablation(
            [AblationCell(workload="ncf", fault="none", **TINY)]
        )
        assert report.ok
        assert report.cells[0].baseline.run_id == "ncf-none-baseline"


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
