"""repro.bench — the performance subsystem: scenarios, runner, reports, gate.

The paper's claims are quantitative, so the repo tracks them quantitatively:

* a declarative **scenario registry** (:mod:`repro.bench.scenarios`) defines
  every measured workload once, at ``quick`` and ``full`` size tiers;
* the **runner** (:mod:`repro.bench.runner`) drives each scenario through
  :func:`repro.api.solve` and records wall time, achieved I/O cost, the best
  known lower bound and its gap, and the exhaustive search's state counters;
* the **reporter** (:mod:`repro.bench.report`) writes schema-versioned
  ``BENCH_repro.json`` documents with environment metadata;
* the **comparator** (:mod:`repro.bench.compare`) gates a run against a
  baseline report and flags wall-time and I/O-cost regressions.

Command line::

    python -m repro.bench --quick --output BENCH_repro.json
    python -m repro.bench --quick --compare BASELINE.json --threshold 1.25

The pytest-benchmark wrappers under ``benchmarks/`` parametrize over this
registry, so the paper-proposition grouping of the benchmark files survives
while the workload definitions live here.
"""

from .compare import (
    DEFAULT_THRESHOLD,
    ComparisonResult,
    Regression,
    compare_reports,
)
from .report import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    build_report,
    environment_metadata,
    load_report,
    report_records,
    write_report,
)
from .runner import ScenarioRecord, run_scenario, run_suite
from .scenario import (
    TIERS,
    BenchScenario,
    ScenarioTier,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_groups,
    scenario_names,
    unregister_scenario,
)
from .scenarios import register_builtin_scenarios

# Populate the registry exactly once, at import time: every consumer
# (the CLI, CI, the pytest wrappers, tests) sees the same scenario set.
register_builtin_scenarios()

__all__ = [
    "BenchScenario",
    "ScenarioTier",
    "TIERS",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "iter_scenarios",
    "scenario_names",
    "scenario_groups",
    "register_builtin_scenarios",
    "ScenarioRecord",
    "run_scenario",
    "run_suite",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "build_report",
    "environment_metadata",
    "write_report",
    "load_report",
    "report_records",
    "Regression",
    "ComparisonResult",
    "compare_reports",
    "DEFAULT_THRESHOLD",
]
