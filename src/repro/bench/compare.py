"""The baseline comparator: the regression gate behind ``--compare``.

Given the current report and a baseline report, flags

* **wall-time regressions** — a scenario slower than ``threshold`` times its
  baseline (both sides floored at ``min_wall_time_s`` so sub-millisecond
  timer noise cannot fail a build);
* **I/O-cost regressions** — any achieved cost above the baseline's.  Costs
  are deterministic replays of deterministic schedules, so *any* increase is
  a real algorithmic regression and no threshold applies;
* **search regressions** — any rise in an exhaustive scenario's
  ``states_expanded``: A* is deterministic, so more expanded states is a
  weaker heuristic or prune, never noise, and no threshold applies either;
* **new failures** — a scenario that errored or missed its expected cost now
  but was healthy in the baseline;
* **missing scenarios** — present in the baseline but absent from the
  current run (a silently dropped workload must not look like a pass).

Improvements (faster, cheaper) are reported informationally and never fail.

The comparator reads only ``io_cost``, ``states_expanded``, ``wall_time_s``,
``error`` and ``expected_ok`` from each record.  Baselines are read with
:func:`~repro.bench.report.load_report`, which accepts the current schema
version only, so a baseline is re-recorded when the schema moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .report import report_records

__all__ = ["Regression", "ComparisonResult", "compare_reports", "DEFAULT_THRESHOLD"]

#: Default wall-time ratio above which a scenario counts as regressed.
DEFAULT_THRESHOLD = 1.25

#: Wall times below this floor are treated as equal (timer noise).
DEFAULT_MIN_WALL_TIME_S = 0.02

#: (record field, regression kind, wording) of the counts any rise of which
#: is a regression.
_DETERMINISTIC = (
    ("io_cost", "io-cost", "I/O cost"),
    ("states_expanded", "states-expanded", "A* expanded states"),
)


@dataclass(frozen=True)
class Regression:
    """One flagged difference between the current run and the baseline."""

    scenario: str
    tier: str
    kind: str  # "wall-time" | "io-cost" | "states-expanded" | "failure" | "missing"
    message: str
    current: Optional[float] = None
    baseline: Optional[float] = None


@dataclass
class ComparisonResult:
    """Outcome of :func:`compare_reports`.

    ``ok`` is True iff no regression was found; ``improvements`` and
    ``skipped`` carry informational notes (never failures).
    """

    threshold: float
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def describe(self) -> str:
        """Multi-line human-readable summary (one line per finding)."""
        lines = []
        for reg in self.regressions:
            lines.append(f"REGRESSION [{reg.kind}] {reg.scenario} ({reg.tier}): {reg.message}")
        for note in self.improvements:
            lines.append(f"improved: {note}")
        for note in self.skipped:
            lines.append(f"skipped: {note}")
        if not lines:
            lines.append("no differences against the baseline")
        return "\n".join(lines)


def _index(doc: Dict[str, object]) -> Dict[Tuple[str, str], Dict[str, object]]:
    return {
        (str(rec.get("scenario")), str(rec.get("tier"))): rec
        for rec in report_records(doc)
    }


def _is_healthy(rec: Dict[str, object]) -> bool:
    return rec.get("error") is None and rec.get("expected_ok") is not False


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    min_wall_time_s: float = DEFAULT_MIN_WALL_TIME_S,
) -> ComparisonResult:
    """Compare two loaded BENCH report documents; see the module docstring."""
    if threshold < 1.0:
        raise ValueError(f"threshold must be >= 1.0, got {threshold}")
    result = ComparisonResult(threshold=threshold)
    current_index = _index(current)
    baseline_index = _index(baseline)

    for key, base_rec in sorted(baseline_index.items()):
        name, tier = key
        cur_rec = current_index.get(key)
        if cur_rec is None:
            result.regressions.append(
                Regression(
                    scenario=name,
                    tier=tier,
                    kind="missing",
                    message="present in the baseline but absent from the current run",
                )
            )
            continue

        if not _is_healthy(base_rec):
            # A scenario that was already broken at the baseline cannot
            # regress further; it only gates again once a healthy baseline
            # records it.
            result.skipped.append(f"{name} ({tier}): baseline run was already failing")
            continue
        if not _is_healthy(cur_rec):
            detail = cur_rec.get("error") or (
                f"expected cost {cur_rec.get('expected_cost')}, got {cur_rec.get('io_cost')}"
            )
            result.regressions.append(
                Regression(
                    scenario=name, tier=tier, kind="failure", message=str(detail)
                )
            )
            continue

        for key, kind, what in _DETERMINISTIC:
            cur, base = cur_rec.get(key), base_rec.get(key)
            if isinstance(cur, int) and isinstance(base, int):
                if cur > base:
                    result.regressions.append(
                        Regression(
                            scenario=name,
                            tier=tier,
                            kind=kind,
                            message=f"{what} rose from {base} to {cur}",
                            current=float(cur),
                            baseline=float(base),
                        )
                    )
                elif cur < base:
                    result.improvements.append(f"{name} ({tier}): {what} fell from {base} to {cur}")

        cur_time, base_time = cur_rec.get("wall_time_s"), base_rec.get("wall_time_s")
        if isinstance(cur_time, (int, float)) and isinstance(base_time, (int, float)):
            effective_cur = max(float(cur_time), min_wall_time_s)
            effective_base = max(float(base_time), min_wall_time_s)
            ratio = effective_cur / effective_base
            if ratio > threshold:
                result.regressions.append(
                    Regression(
                        scenario=name,
                        tier=tier,
                        kind="wall-time",
                        message=(
                            f"wall time {cur_time:.4f}s vs baseline {base_time:.4f}s "
                            f"({ratio:.2f}x > threshold {threshold:.2f}x)"
                        ),
                        current=float(cur_time),
                        baseline=float(base_time),
                    )
                )
            elif ratio < 1.0 / threshold:
                result.improvements.append(
                    f"{name} ({tier}): wall time {cur_time:.4f}s vs baseline "
                    f"{base_time:.4f}s ({ratio:.2f}x)"
                )

    for key in sorted(set(current_index) - set(baseline_index)):
        result.skipped.append(f"{key[0]} ({key[1]}): new scenario, no baseline to compare")
    return result
