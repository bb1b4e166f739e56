"""Drive registry scenarios through the :mod:`repro.api` solvers and record results.

The runner is the single measurement path of the bench subsystem: the CLI
(``python -m repro.bench``), the CI smoke job and the pytest-benchmark
wrappers under ``benchmarks/`` all call :func:`run_scenario` /
:func:`run_suite`, so every consumer sees the same numbers for the same
workload.

Two execution modes share the record-building code:

* **serial** (``jobs <= 1``) — one scenario at a time, timed around the
  ``solve()`` call exactly as before;
* **parallel** (``jobs > 1``) — the whole suite is posed as one
  :func:`repro.api.solve_many` batch; per-scenario wall time then comes from
  ``SolveResult.solve_stats`` (measured inside the winning solver, in the
  worker that ran it), so the numbers stay comparable across modes.

Either mode can consult a :class:`~repro.api.ResultCache`.  A cache hit is
flagged on the record (``cache_hit``) and reports the *stored* solve time —
the wall time of the run that actually computed the result — so a cached
suite keeps historically meaningful timings instead of near-zero lookups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..api import ResultCache, problem_digest, solve, solve_many_detailed
from ..api.problem import PebblingProblem
from ..api.result import SolveResult
from .scenario import BenchScenario, get_scenario, iter_scenarios

__all__ = ["ScenarioRecord", "run_scenario", "run_suite"]


@dataclass(frozen=True)
class ScenarioRecord:
    """One scenario run, flattened into the fields the BENCH json carries.

    ``wall_time_s`` is the minimum over ``repeats`` timed ``solve()`` calls
    (the DAG is built once, outside the timed region); for a cache hit it is
    the stored solve time of the run that produced the entry.  ``cache_hit``
    is ``None`` when no cache was in play.  ``expected_ok`` is ``None`` when
    the scenario declares no expectation, else whether the achieved cost
    matched the closed form (and, for ``expect_optimal`` scenarios, whether
    optimality was proven).  A record with ``error`` set carries ``None`` in
    every measurement field.
    """

    scenario: str
    group: str
    tier: str
    game: str
    variant: str
    solver_requested: str
    reference: str
    n: Optional[int] = None
    m: Optional[int] = None
    r: Optional[int] = None
    wall_time_s: Optional[float] = None
    io_cost: Optional[int] = None
    lower_bound: Optional[int] = None
    lower_bound_source: str = ""
    gap: Optional[int] = None
    optimal: Optional[bool] = None
    solver_used: Optional[str] = None
    expected_cost: Optional[int] = None
    expected_ok: Optional[bool] = None
    states_expanded: Optional[int] = None
    states_frontier_peak: Optional[int] = None
    peak_red: Optional[int] = None
    moves: Optional[int] = None
    cache_hit: Optional[bool] = None
    #: anytime-refinement trajectory (schema v2): cost the refinement pass
    #: started from, mutation attempts spent/accepted, and seconds until the
    #: final best schedule was first reached; all None when the winning
    #: solver never entered the refinement engine.
    refine_initial_cost: Optional[int] = None
    refine_steps: Optional[int] = None
    refine_accepted: Optional[int] = None
    refine_time_to_best_s: Optional[float] = None
    #: replay-throughput microbenchmark fields (schema v3): kernel-over-engine
    #: schedule-validation speedup and the two absolute throughputs; all None
    #: for ordinary solve scenarios.
    replay_speedup: Optional[float] = None
    replay_schedules_per_s: Optional[float] = None
    replay_engine_schedules_per_s: Optional[float] = None
    #: A* states expanded per wall-clock second of the solve (schema v4);
    #: None when no exhaustive search ran.
    states_per_s: Optional[float] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True iff the run finished and met every declared expectation."""
        return self.error is None and self.expected_ok is not False

    def to_dict(self) -> Dict[str, object]:
        """The record as the plain dict stored in the BENCH json."""
        return {
            "scenario": self.scenario,
            "group": self.group,
            "tier": self.tier,
            "game": self.game,
            "variant": self.variant,
            "solver_requested": self.solver_requested,
            "solver_used": self.solver_used,
            "reference": self.reference,
            "n": self.n,
            "m": self.m,
            "r": self.r,
            "wall_time_s": self.wall_time_s,
            "io_cost": self.io_cost,
            "lower_bound": self.lower_bound,
            "lower_bound_source": self.lower_bound_source,
            "gap": self.gap,
            "optimal": self.optimal,
            "expected_cost": self.expected_cost,
            "expected_ok": self.expected_ok,
            "states_expanded": self.states_expanded,
            "states_frontier_peak": self.states_frontier_peak,
            "peak_red": self.peak_red,
            "moves": self.moves,
            "cache_hit": self.cache_hit,
            "refine_initial_cost": self.refine_initial_cost,
            "refine_steps": self.refine_steps,
            "refine_accepted": self.refine_accepted,
            "refine_time_to_best_s": self.refine_time_to_best_s,
            "replay_speedup": self.replay_speedup,
            "replay_schedules_per_s": self.replay_schedules_per_s,
            "replay_engine_schedules_per_s": self.replay_engine_schedules_per_s,
            "states_per_s": self.states_per_s,
            "error": self.error,
        }


def _base_fields(scenario: BenchScenario, tier: str) -> Dict[str, object]:
    spec = scenario.tier(tier)  # raises KeyError on an unknown tier, by design
    return dict(
        scenario=scenario.name,
        group=scenario.group,
        tier=tier,
        game=scenario.game,
        variant=scenario.variant.describe(),
        solver_requested=scenario.solver,
        reference=scenario.reference,
        expected_cost=spec.expected_cost,
    )


def _finish_record(
    scenario: BenchScenario,
    base: Dict[str, object],
    problem: PebblingProblem,
    result: SolveResult,
    wall_time: Optional[float],
    cache_hit: Optional[bool],
) -> ScenarioRecord:
    expected_ok: Optional[bool] = None
    if base["expected_cost"] is not None:
        expected_ok = result.cost == base["expected_cost"]
    if scenario.expect_optimal:
        expected_ok = (expected_ok is not False) and result.optimal

    solve_stats = result.solve_stats
    trajectory = solve_stats.refinement if solve_stats else None
    states = solve_stats.states_expanded if solve_stats else None
    return ScenarioRecord(
        n=problem.n,
        m=problem.dag.m,
        r=problem.r,
        wall_time_s=wall_time,
        io_cost=result.cost,
        lower_bound=result.lower_bound,
        lower_bound_source=result.lower_bound_source,
        gap=result.gap,
        optimal=result.optimal,
        solver_used=result.solver,
        expected_ok=expected_ok,
        states_expanded=states,
        states_frontier_peak=solve_stats.states_frontier_peak if solve_stats else None,
        peak_red=result.stats.peak_red,
        moves=result.stats.moves,
        cache_hit=cache_hit,
        refine_initial_cost=trajectory.initial_cost if trajectory else None,
        refine_steps=trajectory.steps if trajectory else None,
        refine_accepted=trajectory.accepted if trajectory else None,
        refine_time_to_best_s=trajectory.time_to_best_s if trajectory else None,
        states_per_s=states / wall_time if states is not None and wall_time else None,
        **base,
    )


def _stored_wall_time(result: SolveResult) -> Optional[float]:
    return result.solve_stats.wall_time_s if result.solve_stats is not None else None


def run_scenario(
    scenario: Union[str, BenchScenario],
    tier: str = "quick",
    repeats: int = 1,
    cache: Optional[ResultCache] = None,
) -> ScenarioRecord:
    """Run one scenario at one tier and return its :class:`ScenarioRecord`.

    Never raises for a failing *workload* — solver errors, infeasible
    capacities and expectation mismatches are reported in the record, so a
    broken scenario cannot take down the rest of a suite run.  Registry
    misuse (an unknown scenario or tier name) still raises ``KeyError``.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    base = _base_fields(scenario, tier)
    if scenario.custom_runner is not None:
        # measurement scenarios (e.g. replay throughput) own their whole
        # run; they never touch the result cache — there is no solve result
        # to store — and report through the same record type
        try:
            record = scenario.custom_runner(scenario, tier, max(1, repeats))
        except Exception as exc:  # noqa: BLE001 — a broken bench is a record, not a crash
            return ScenarioRecord(error=f"custom runner failed: {exc}", **base)
        if not isinstance(record, ScenarioRecord):
            return ScenarioRecord(
                error=f"custom runner returned {type(record).__name__}, not a ScenarioRecord",
                **base,
            )
        return record
    try:
        problem = scenario.build_problem(tier)
    except Exception as exc:  # noqa: BLE001 — a bad factory is a scenario error
        return ScenarioRecord(error=f"building the problem failed: {exc}", **base)

    digest: Optional[str] = None
    if cache is not None:
        digest = problem_digest(
            problem, solver=scenario.solver, options=dict(scenario.solve_options)
        )
        hit = cache.get(problem, digest)
        if hit is not None:
            return _finish_record(
                scenario, base, problem, hit, _stored_wall_time(hit), cache_hit=True
            )

    best_time: Optional[float] = None
    result = None
    try:
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            attempt = solve(problem, solver=scenario.solver, **dict(scenario.solve_options))
            elapsed = time.perf_counter() - start
            if best_time is None or elapsed < best_time:
                # keep the result of the fastest repeat, matching the
                # min-of-N policy of the parallel path — it is also what a
                # cache hit will later report as the stored solve time
                best_time, result = elapsed, attempt
    except Exception as exc:  # noqa: BLE001 — solver failures become records too
        return ScenarioRecord(
            n=problem.n,
            m=problem.dag.m,
            r=problem.r,
            error=f"solve() failed: {exc}",
            **base,
        )

    if cache is not None:
        cache.put(digest, result)
    return _finish_record(
        scenario, base, problem, result, best_time, cache_hit=False if cache is not None else None
    )


def run_suite(
    tier: str = "quick",
    groups: Optional[Iterable[str]] = None,
    names: Optional[Iterable[str]] = None,
    repeats: int = 1,
    progress: Optional[Callable[[ScenarioRecord], None]] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[ScenarioRecord]:
    """Run every matching registry scenario and return the records in order.

    ``names`` selects specific scenarios (validated eagerly so a typo fails
    fast instead of silently shrinking the suite); ``groups`` filters by
    paper anchor; both together intersect.  ``progress`` is invoked with
    each finished record (the CLI uses it for live output).  ``jobs > 1``
    solves the whole suite as one :func:`repro.api.solve_many` batch over
    worker processes — scenario costs are identical to a serial run, and
    record order still follows the registry.
    """
    if names is not None:
        wanted = [get_scenario(name) for name in names]
        group_filter = set(groups) if groups is not None else None
        scenarios = [
            s for s in wanted if group_filter is None or s.group in group_filter
        ]
    else:
        scenarios = iter_scenarios(groups=groups)

    if jobs is None or jobs <= 1:
        records = []
        for scenario in scenarios:
            record = run_scenario(scenario, tier=tier, repeats=repeats, cache=cache)
            if progress is not None:
                progress(record)
            records.append(record)
        return records
    return _run_suite_parallel(scenarios, tier, repeats, progress, jobs, cache)


def _run_suite_parallel(
    scenarios: List[BenchScenario],
    tier: str,
    repeats: int,
    progress: Optional[Callable[[ScenarioRecord], None]],
    jobs: int,
    cache: Optional[ResultCache],
) -> List[ScenarioRecord]:
    records: List[Optional[ScenarioRecord]] = [None] * len(scenarios)
    bases: List[Dict[str, object]] = [_base_fields(s, tier) for s in scenarios]

    solvable: List[int] = []
    custom: List[int] = []
    problems: List[PebblingProblem] = []
    for i, scenario in enumerate(scenarios):
        if scenario.custom_runner is not None:
            # custom measurements (microbenchmarks) are deferred until the
            # worker pool has drained: timing them while the pool's workers
            # churn through the other scenarios would measure contention,
            # not the code.  Record order still follows the registry.
            custom.append(i)
            continue
        try:
            problems.append(scenario.build_problem(tier))
            solvable.append(i)
        except Exception as exc:  # noqa: BLE001 — a bad factory is a scenario error
            records[i] = ScenarioRecord(error=f"building the problem failed: {exc}", **bases[i])

    outcomes, info = solve_many_detailed(
        problems,
        solver=[scenarios[i].solver for i in solvable],
        per_problem_options=[dict(scenarios[i].solve_options) for i in solvable],
        jobs=jobs,
        cache=cache,
        repeats=repeats,
        return_exceptions=True,
    )
    for pos, i in enumerate(solvable):
        outcome = outcomes[pos]
        if isinstance(outcome, SolveResult):
            cache_hit = info.cache_hits[pos] if cache is not None else None
            records[i] = _finish_record(
                scenarios[i],
                bases[i],
                problems[pos],
                outcome,
                _stored_wall_time(outcome),
                cache_hit,
            )
        else:
            records[i] = ScenarioRecord(
                n=problems[pos].n,
                m=problems[pos].dag.m,
                r=problems[pos].r,
                error=f"solve() failed: {outcome}",
                **bases[i],
            )
    for i in custom:
        records[i] = run_scenario(scenarios[i], tier=tier, repeats=repeats)
    if progress is not None:
        for record in records:
            progress(record)
    return list(records)
