"""The benchmark is a pure function of its seed, where it claims to be.

Run from the root of a checkout (a few minutes; it is not part of the
repository's test suite)::

    python3 -m pytest -q perfbench/test_determinism.py

For every workload, two short runs with the same seed must build identical
instances (same digest), pass the output check, and agree exactly on the
deterministic counts: ``io_cost_total``, ``lower_bound_total``,
``optimal_fraction``, ``exhaustive.states_expanded`` and ``anytime.steps``.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
SECONDS = {"exact": 2.0, "structured": 1.0, "heuristic": 1.0, "service": 3.0}
END_TO_END = ("io_cost_total", "lower_bound_total", "optimal_fraction")
PER_LAYER = ("exhaustive.states_expanded", "anytime.steps")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_instances_and_counts(workload: str) -> None:
    first, second = (
        run.run_workload(ROOT, workload, SEED, SECONDS[workload], trace=True) for _ in range(2)
    )
    for report in (first, second):
        assert report["failed"] == 0, report["errors"] + report["mismatches"]
    assert first["info"]["digest"] == second["info"]["digest"]
    for name in END_TO_END:
        assert first["end_to_end"][name] == second["end_to_end"][name], name
    for name in PER_LAYER:
        assert first["per_layer"].get(name) == second["per_layer"].get(name), name


def test_other_seed_other_instances() -> None:
    a = run.run_workload(ROOT, "heuristic", SEED, 1.0, trace=False)
    b = run.run_workload(ROOT, "heuristic", SEED + 1, 1.0, trace=False)
    assert a["info"]["digest"] != b["info"]["digest"]
