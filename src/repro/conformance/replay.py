"""Deterministic seed-replay and failure minimization.

Every conformance failure must shrink to a one-command reproduction.
The pieces:

* :class:`ReproSpec` -- a conformance case plus the problems observed,
  renderable as a standalone python snippet (``to_snippet``) that
  re-runs the exact failing simulation and asserts it still fails.
* :func:`minimize_case` -- greedy delta-debugging over the case's
  axes: drop the fault plan, shrink workers, halve the tensor, simplify
  the pattern/transport/dtype.  A shrink is kept only when the failure
  still reproduces, so the emitted spec is the smallest case (under
  this shrink order) that exhibits the bug.
* :func:`run_spec` -- replay a spec and return the fresh report.

Everything rides on determinism: a case's fields fully seed the
simulation, so "same spec, same failure" holds bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional

from .runner import CaseReport, ConformanceCase, run_case

__all__ = ["ReproSpec", "minimize_case", "run_spec"]

#: Upper bound on runs spent shrinking one failure.
MAX_SHRINK_RUNS = 32


@dataclass
class ReproSpec:
    """A minimized, replayable description of one conformance failure."""

    case: ConformanceCase
    problems: List[str] = field(default_factory=list)
    shrink_runs: int = 0

    def constructor_source(self) -> str:
        """``ConformanceCase(...)`` source with non-default fields only."""
        parts = []
        for f in fields(ConformanceCase):
            value = getattr(self.case, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value!r}")
        return f"ConformanceCase({', '.join(parts)})"

    def to_snippet(self) -> str:
        """A standalone one-command repro: run from the repo root."""
        problem_lines = "".join(f"#   {p}\n" for p in self.problems[:6])
        features_import = (
            "from repro.core.features import ProtocolFeatures\n"
            if self.case.features is not None
            else ""
        )
        return (
            "# Conformance failure repro (auto-minimized). Run from the repo root:\n"
            "#   PYTHONPATH=src python repro_case.py\n"
            "# Observed problems:\n"
            f"{problem_lines}"
            "from repro.conformance import ConformanceCase, run_case\n"
            f"{features_import}"
            "\n"
            f"report = run_case({self.constructor_source()})\n"
            "print(report.summary())\n"
            'assert not report.ok, "failure no longer reproduces"\n'
        )


def run_spec(spec: ReproSpec) -> CaseReport:
    """Replay a repro spec (deterministic: same case, same outcome)."""
    return run_case(spec.case)


def _still_fails(
    case: ConformanceCase,
    fails: Callable[[ConformanceCase], bool],
    budget: List[int],
) -> bool:
    if budget[0] <= 0:
        return False
    budget[0] -= 1
    try:
        return fails(case)
    except Exception:
        # A shrink that crashes the runner outright still demonstrates a
        # failure, but is a worse repro than the one we have; reject it.
        return False


def minimize_case(
    case: ConformanceCase,
    fails: Optional[Callable[[ConformanceCase], bool]] = None,
    max_runs: int = MAX_SHRINK_RUNS,
) -> ReproSpec:
    """Shrink ``case`` to a smaller one that still fails.

    ``fails(case) -> bool`` decides whether a candidate still exhibits
    the failure (default: ``not run_case(case).ok``).  Returns a
    :class:`ReproSpec` for the smallest failing case found; if the
    original case does not fail under ``fails``, it is returned
    unminimized with no recorded problems.
    """
    if fails is None:
        fails = lambda c: not run_case(c).ok  # noqa: E731
    budget = [max_runs]
    current = case
    if not _still_fails(current, fails, budget):
        return ReproSpec(case=case, shrink_runs=max_runs - budget[0])

    def candidates(c: ConformanceCase) -> List[ConformanceCase]:
        out = []
        if c.fault != "none":
            out.append(c.with_(fault="none"))
        if c.workers > 2:
            out.append(c.with_(workers=2, aggregators=None))
        if c.elements >= 2 * c.block_size * 2:
            out.append(c.with_(elements=c.elements // 2))
        if c.pattern != "uniform":
            out.append(c.with_(pattern="uniform"))
        if c.transport != "rdma":
            out.append(c.with_(transport="rdma"))
        if c.dtype != "float32":
            out.append(c.with_(dtype="float32"))
        if c.block_size > 16 and c.elements % (c.block_size // 2) == 0:
            out.append(c.with_(block_size=c.block_size // 2))
        return out

    progress = True
    while progress and budget[0] > 0:
        progress = False
        for candidate in candidates(current):
            if _still_fails(candidate, fails, budget):
                current = candidate
                progress = True
                break

    report = run_case(current)
    return ReproSpec(
        case=current,
        problems=report.problems(),
        shrink_runs=max_runs - budget[0],
    )
