"""Feature ablations vs the dense oracle, and the harness's teeth.

Protocol features are performance-only by contract: disabling any one
mechanism may change timing and wire volume but must never change the
reduced tensors.  The hypothesis sweep pins that against the dense
float64 conformance oracle for every single-feature-off configuration
across a small algorithm x worker-count matrix, in both simulation
modes, plus the lossy-fault axis for the recovery-path features.

The final tests prove the ablation harness *flags* a feature whose
disablement corrupts results: a test-only mutant collective corrupts
outputs exactly when a target feature is off, and the harness must
report the run incorrect instead of folding it into the deltas.
"""

from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ablation import AblationCell, run_cell
from repro.baselines import registry
from repro.baselines.api import Collective, Session
from repro.conformance import ConformanceCase, run_case
from repro.core.collective import CollectiveResult
from repro.core.features import DEFAULT_FEATURES, FEATURES, ProtocolFeatures

pytestmark = [pytest.mark.conformance, pytest.mark.ablation]

FEATURE_NAMES = sorted(FEATURES)

#: Baseline with every catalog feature on (backoff needs a factor > 1).
ALL_ON = DEFAULT_FEATURES.with_(backoff_factor=2.0)


def _case(feature: str, **changes) -> ConformanceCase:
    defaults = dict(
        algorithm="omnireduce",
        features=ALL_ON.disable(feature),
    )
    defaults.update(changes)
    return ConformanceCase(**defaults)


@given(
    feature=st.sampled_from(FEATURE_NAMES),
    workers=st.sampled_from([1, 2, 3, 4]),
    pattern=st.sampled_from(["uniform", "clustered", "all-zero", "dense"]),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_single_feature_off_matches_oracle(feature, workers, pattern, seed):
    """Packet mode: every single-feature-off config stays oracle-exact."""
    report = run_case(_case(feature, workers=workers, pattern=pattern, seed=seed))
    assert report.ok, report.summary()


@given(
    feature=st.sampled_from(FEATURE_NAMES),
    workers=st.sampled_from([2, 4]),
    seed=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=15, deadline=None)
def test_single_feature_off_matches_oracle_flow(feature, workers, seed):
    """Flow mode: the analytical fast path honours every ablation too."""
    report = run_case(_case(feature, workers=workers, sim_mode="flow", seed=seed))
    assert report.ok, report.summary()


@pytest.mark.parametrize(
    "feature", [f for f in FEATURE_NAMES if "packet" in FEATURES[f].modes]
)
def test_single_feature_off_survives_loss(feature):
    """Lossy dpdk: ablations compose with Algorithm 2 recovery."""
    report = run_case(
        _case(feature, transport="dpdk", fault="bernoulli-loss")
    )
    assert report.ok, report.summary()


def test_all_features_off_together_matches_oracle():
    """The harness ablates one at a time, but all-off must also hold."""
    everything_off = ProtocolFeatures(
        lookahead=False,
        zero_block_suppression=False,
        slot_parallelism=False,
        fusion=False,
        chunk_prefetch=False,
    )
    for sim_mode in ("packet", "flow"):
        report = run_case(
            ConformanceCase(
                algorithm="omnireduce",
                features=everything_off,
                sim_mode=sim_mode,
            )
        )
        assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# The harness must flag a feature whose disablement corrupts results.
# ---------------------------------------------------------------------------


class _FeatureCorruptingSession(Session):
    """Delegates to the real session; corrupts when ``target`` is off."""

    def __init__(self, inner: Session, target: str) -> None:
        super().__init__(
            inner.cluster, inner.options, inner.algorithm, inner.features
        )
        self._inner = inner
        self._target = target

    def allreduce(
        self, tensors: Sequence[np.ndarray], **kwargs
    ) -> CollectiveResult:
        result = self._inner.allreduce(tensors, **kwargs)
        if self.features is not None and not self.features.enabled(self._target):
            result.outputs[0] = result.outputs[0].copy()
            result.outputs[0][0] += 1.0
        return result


class FeatureCorruptingCollective(Collective):
    """Test-only mutant: disabling ``target`` silently corrupts output.

    Models the bug class the ablation harness exists to catch -- a
    mechanism whose removal is *not* performance-only.
    """

    def __init__(self, target: str) -> None:
        self._inner = registry.get("omnireduce")
        self.name = self._inner.name
        self.options_cls = self._inner.options_cls
        self._target = target

    def prepare(self, cluster, options: Optional[object] = None) -> Session:
        return _FeatureCorruptingSession(
            self._inner.prepare(cluster, options), self._target
        )


def _tiny_cell(**changes) -> AblationCell:
    defaults = dict(
        workload="deeplight", elements=1 << 14, workers=4, aggregators=4
    )
    defaults.update(changes)
    return AblationCell(**defaults)


def test_harness_flags_corrupting_feature_disablement():
    report = run_cell(_tiny_cell(), FeatureCorruptingCollective("fusion"))
    assert not report.ok
    assert report.baseline.correct  # full feature set untouched
    flagged = {d.feature: d for d in report.deltas if d.run is not None}
    assert not flagged["fusion"].run.correct
    assert flagged["fusion"].run.oracle_problems
    assert flagged["fusion"].run.max_abs_err >= 1.0
    # Every *other* ablation run stays oracle-exact.
    for feature, delta in flagged.items():
        if feature != "fusion":
            assert delta.run.correct, delta.run.oracle_problems


def test_harness_clean_on_honest_collective():
    report = run_cell(_tiny_cell())
    assert report.ok
    assert all(run.correct for run in report.runs)
