""":func:`solve` — the single entry point for posing and solving problems.

``solve(problem)`` runs the auto-dispatch portfolio; ``solve(problem,
solver="fft-blocked")`` runs one registered solver by name.  Either way the
returned :class:`~repro.api.result.SolveResult` carries a schedule that has
been replayed once by the schedule-IR replay kernel (``Schedule.stats()``,
differentially pinned to the game engines), so the reported cost is the
cost of an actually legal pebbling.

The ``"auto"`` portfolio, in order:

1. **Exhaustive optimum** when the DAG is small enough
   (``n <= exact_node_limit``) and the search finishes within ``budget``
   expanded states.
2. **Family-matched structured strategy** when the DAG carries a
   :class:`~repro.core.dag.DAGFamily` tag that a registered solver names and
   the capacity satisfies the solver's minimum.  If the strategy's cost
   meets the best known lower bound it is returned immediately; otherwise,
   on DAGs of at most :data:`GREEDY_COMPARISON_NODE_LIMIT` nodes, the
   greedy fallback is also run and the cheaper of the two schedules wins
   (ties go to the structured strategy).  The paper's strategies are built
   for their critical capacity regime, and away from it — e.g. a reduction
   tree with far more than ``k + 1`` pebbles — plain greedy pebbling can
   genuinely beat them; beyond the node limit the structured result is
   returned without the comparison, since asymptotically the structured
   strategies dominate and the greedy replay would dominate solve time.
3. **Greedy fallback** (Belady-eviction topological processing) for
   everything else.

A step that raises :class:`~repro.core.exceptions.SolverError` falls through
to the next; if every step fails, :func:`solve` raises a ``SolverError``
whose message lists what was attempted and why each attempt failed.

Whatever heuristic schedule the portfolio settles on is handed to a final
**anytime refinement pass** (:mod:`repro.solvers.anytime`): a budgeted,
seeded local search that can only ever lower the achieved cost.  The pass is
skipped when the result is already provably optimal; its trajectory (initial
cost → refined cost, steps, time-to-best) is recorded on
``SolveResult.solve_stats.refinement``.  The knobs — ``seed`` (first-class
parameter), ``refine_steps``, ``time_budget_s`` and ``refine=False``
(solver options) — thread through :func:`solve` and
:func:`repro.api.solve_many` alike.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional, Tuple

from ..core.exceptions import SolverError
from ..core.schedule_ir import kernel_stats
from ..obs.recorder import recording
from ..obs.telemetry import SolveTelemetry, get_telemetry_log
from ..obs.tracing import get_tracer
from ..solvers.anytime import refine_schedule
from .bounds import best_lower_bound
from .problem import PebblingProblem
from .registry import SolverInfo, get_solver, list_solvers
from .result import Schedule, SolveAttempt, SolveResult, SolveStats

__all__ = [
    "solve",
    "AUTO_EXACT_NODE_LIMIT",
    "DEFAULT_AUTO_BUDGET",
    "GREEDY_COMPARISON_NODE_LIMIT",
]

#: Above this node count the auto portfolio does not attempt exhaustive search.
AUTO_EXACT_NODE_LIMIT = 14

#: Default state budget for the exhaustive step of the auto portfolio.
DEFAULT_AUTO_BUDGET = 500_000

#: Above this node count the portfolio returns a (non-provably-optimal)
#: structured result without also running the greedy comparison.  Greedy only
#: beats the paper's strategies in small boundary regimes (tiny ``r``, or a
#: capacity far above the critical one); asymptotically the structured
#: strategies win by construction, and on multi-thousand-node DAGs the
#: Belady-eviction replay would dominate the total solve time.
GREEDY_COMPARISON_NODE_LIMIT = 2_000


def _run(
    info: SolverInfo,
    problem: PebblingProblem,
    bound: Tuple[Optional[int], str],
    **options: object,
) -> SolveResult:
    """Run one solver, replay its schedule once and package it into a result.

    The ``stats()`` replay below is the only validation of a solver's
    schedule: solvers return schedules unreplayed, and an illegal one raises
    here.  It runs the replay kernel; the game engines only replay a
    schedule the kernel refuses, to raise their own message.

    ``bound`` is the problem's precomputed ``best_lower_bound`` pair — it
    depends only on the problem, so callers compute it once per solve rather
    than once per portfolio attempt.  The solver runs under a fresh
    :class:`~repro.obs.recorder.SolveRecorder`, which holds its A* counters
    and refinement trajectory if it entered the search or the refiner.
    """
    start = time.perf_counter()
    with recording() as recorder:
        schedule: Schedule = info.fn(problem, **options)
    stats = schedule.stats()  # the kernel replay; raises on an illegal schedule
    wall_time = time.perf_counter() - start
    search = recorder.search
    return SolveResult(
        problem=problem,
        schedule=schedule,
        stats=stats,
        solver=info.name,
        exact_solver=info.exact,
        lower_bound=bound[0],
        lower_bound_source=bound[1],
        solve_stats=SolveStats(
            wall_time_s=wall_time,
            states_expanded=search.expanded if search else None,
            states_frontier_peak=search.frontier_peak if search else None,
            refinement=recorder.refinement,
        ),
    )


def _apply_refinement(result: SolveResult, **options: object) -> SolveResult:
    """The auto portfolio's final improvement pass: budgeted anytime refinement.

    Cost-monotone by construction — the refined schedule replaces the
    original only when it is strictly cheaper; either way the trajectory is
    recorded on ``solve_stats``.  The input was already replayed in
    :func:`_run`, so its verified cost is handed to :func:`refine_schedule`
    instead of a second replay; a refined schedule's stats come from one
    more kernel replay (:func:`~repro.core.schedule_ir.kernel_stats`).
    Skipped entirely when the result is
    already provably optimal, when ``refine=False`` is passed, or — unless a
    refinement knob was given explicitly — on DAGs above
    :data:`GREEDY_COMPARISON_NODE_LIMIT` nodes, where the replay-heavy
    search would dominate the solve time.
    """
    if not options.get("refine", True) or result.optimal:
        return result
    steps = options.get("refine_steps")
    time_budget_s = options.get("time_budget_s")
    explicit = steps is not None or time_budget_s is not None or "refine" in options
    if not explicit and result.problem.n > GREEDY_COMPARISON_NODE_LIMIT:
        return result
    seed = int(options.get("seed") or 0)
    on_progress = options.get("on_progress")

    start = time.perf_counter()
    refined, trajectory = refine_schedule(
        result.schedule,
        steps=None if steps is None else int(steps),
        time_budget_s=None if time_budget_s is None else float(time_budget_s),
        seed=seed,
        origin=result.solver,
        on_improve=on_progress if callable(on_progress) else None,
        verified_cost=result.stats.io_cost,
    )
    extra = time.perf_counter() - start

    old = result.solve_stats
    solve_stats = replace(old, wall_time_s=old.wall_time_s + extra, refinement=trajectory)
    if trajectory.refined_cost < trajectory.initial_cost:
        stats = kernel_stats(refined)
        return replace(result, schedule=refined, stats=stats, solve_stats=solve_stats)
    return replace(result, solve_stats=solve_stats)


def _family_candidates(problem: PebblingProblem) -> List[SolverInfo]:
    """Registered structured solvers matching the problem's family tag, game and capacity."""
    fam = problem.family
    if fam is None:
        return []
    return [
        info
        for info in list_solvers(game=problem.game, family=fam.name)
        if info.families and info.supports(problem)
    ]


def _finalize_auto(
    result: SolveResult,
    timings: List[List[object]],
    started: float,
) -> SolveResult:
    """Stamp the total portfolio wall time and per-attempt breakdown.

    ``timings`` entries are mutable ``[solver, wall_s, outcome]`` triples;
    the entry whose solver produced the returned schedule is marked
    ``"won"`` and surviving ``"candidate"`` entries become ``"lost"``.
    """
    won = False
    for entry in timings:
        if entry[2] == "candidate" and entry[0] == result.solver and not won:
            entry[2] = "won"
            won = True
        elif entry[2] == "candidate":
            entry[2] = "lost"
    attempts = tuple(
        SolveAttempt(solver=str(s), wall_time_s=float(w), outcome=str(o))
        for s, w, o in timings
    )
    solve_stats = replace(
        result.solve_stats, wall_time_s=time.perf_counter() - started, attempts=attempts
    )
    return replace(result, solve_stats=solve_stats)


def _auto(
    problem: PebblingProblem,
    budget: Optional[int],
    exact_node_limit: int,
    **options: object,
) -> SolveResult:
    attempts: List[Tuple[str, str]] = []
    # [solver, wall_s, outcome] triples; "candidate" entries are resolved to
    # won/lost once the portfolio settles on a schedule.
    timings: List[List[object]] = []
    started = time.perf_counter()
    bound = best_lower_bound(problem)

    # 1. exhaustive optimum on small instances
    if problem.n <= exact_node_limit:
        info = get_solver("exhaustive")
        attempt_start = time.perf_counter()
        try:
            exact_budget = DEFAULT_AUTO_BUDGET if budget is None else budget
            result = _run(info, problem, bound, budget=exact_budget, **options)
            timings.append(["exhaustive", time.perf_counter() - attempt_start, "candidate"])
            return _finalize_auto(result, timings, started)
        except SolverError as exc:
            attempts.append(("exhaustive", str(exc)))
            timings.append(["exhaustive", time.perf_counter() - attempt_start, "failed"])
    else:
        attempts.append(
            ("exhaustive", f"skipped: n = {problem.n} > exact_node_limit = {exact_node_limit}")
        )
        timings.append(["exhaustive", 0.0, "skipped"])

    # 2. family-matched structured strategy
    structured_result: Optional[SolveResult] = None
    for info in _family_candidates(problem):
        attempt_start = time.perf_counter()
        try:
            structured_result = _run(info, problem, bound, **options)
            timings.append([info.name, time.perf_counter() - attempt_start, "candidate"])
            break
        except SolverError as exc:
            attempts.append((info.name, str(exc)))
            timings.append([info.name, time.perf_counter() - attempt_start, "failed"])
    if structured_result is not None and (
        structured_result.optimal or problem.n > GREEDY_COMPARISON_NODE_LIMIT
    ):
        return _finalize_auto(
            _apply_refinement(structured_result, **options), timings, started
        )

    # 3. greedy — the fallback, and the sanity comparison for a structured
    # strategy used away from its critical capacity regime
    attempt_start = time.perf_counter()
    try:
        greedy_result = _run(get_solver("greedy"), problem, bound, **options)
        timings.append(["greedy", time.perf_counter() - attempt_start, "candidate"])
    except SolverError as exc:
        attempts.append(("greedy", str(exc)))
        timings.append(["greedy", time.perf_counter() - attempt_start, "failed"])
        greedy_result = None

    # 4. whichever heuristic schedule won gets the anytime improvement pass
    if structured_result is not None and greedy_result is not None:
        chosen = (
            structured_result
            if structured_result.cost <= greedy_result.cost
            else greedy_result
        )
        return _finalize_auto(_apply_refinement(chosen, **options), timings, started)
    if structured_result is not None:
        return _finalize_auto(
            _apply_refinement(structured_result, **options), timings, started
        )
    if greedy_result is not None:
        return _finalize_auto(
            _apply_refinement(greedy_result, **options), timings, started
        )

    detail = "; ".join(f"{name}: {reason}" for name, reason in attempts)
    raise SolverError(f"no solver could handle {problem.describe()} — {detail}")


def solve(
    problem: PebblingProblem,
    solver: str = "auto",
    budget: Optional[int] = None,
    seed: Optional[int] = None,
    exact_node_limit: int = AUTO_EXACT_NODE_LIMIT,
    **options: object,
) -> SolveResult:
    """Solve a pebbling problem and return a validated :class:`SolveResult`.

    Parameters
    ----------
    problem:
        The instance (DAG + capacity + game + variant) to solve.
    solver:
        ``"auto"`` (default) runs the portfolio described in the module
        docstring; any other value must be a registered solver name
        (see :func:`repro.api.list_solvers`).
    budget:
        State budget for exhaustive search (expanded configurations).  For
        ``solver="auto"`` it caps step 1 and defaults to
        :data:`DEFAULT_AUTO_BUDGET` (500k, tuned so the portfolio stays
        responsive); for ``solver="exhaustive"`` it is the cap itself and
        ``None`` means the solver's own, larger default
        (:data:`~repro.solvers.exhaustive.DEFAULT_MAX_STATES`); for
        ``solver="anytime"`` it is the refinement step budget.
    seed:
        RNG seed for the anytime refinement engine (the auto portfolio's
        final improvement pass and the ``"anytime"`` solver).  ``None``
        means the default seed 0; a fixed ``(seed, refine_steps)`` pair
        makes refined schedules bit-identical across runs and processes.
        A seed alone does not force the pass — on DAGs above
        :data:`GREEDY_COMPARISON_NODE_LIMIT` nodes the auto pass is skipped
        unless ``refine_steps``/``time_budget_s``/``refine`` is given.
    exact_node_limit:
        Auto portfolio only: largest node count for which exhaustive search
        is attempted.
    options:
        Forwarded to the solver callable (solver-specific knobs).  The
        refinement pass reads ``refine_steps`` (mutation-attempt budget),
        ``time_budget_s`` (wall-clock ceiling — results under one are not
        cacheable) and ``refine=False`` (disable the pass).  ``on_progress``
        (a callable ``(cost, elapsed_s) -> None``) receives anytime-progress
        events from the refinement engine — the seed cost, then every
        accepted improvement; it never changes the returned result and is
        excluded from cache digests (:data:`repro.api.cache.EPHEMERAL_OPTIONS`).

    Raises
    ------
    SolverError
        If the named solver does not support the problem (wrong game, wrong
        family, ``r`` below the solver's minimum), or if every portfolio
        member fails.
    """
    tracer = get_tracer()
    with tracer.span(
        "solve",
        attrs={"solver": solver, "game": problem.game, "n": problem.n},
    ) as span:
        result = _solve_dispatch(
            problem,
            solver=solver,
            budget=budget,
            seed=seed,
            exact_node_limit=exact_node_limit,
            **options,
        )
        span.set_attr("solver_used", result.solver)
        span.set_attr("cost", result.cost)
        ctx = span.context
    _record_solve_telemetry(problem, solver, options, result, ctx.trace_id)
    return result


def _solve_dispatch(
    problem: PebblingProblem,
    solver: str,
    budget: Optional[int],
    seed: Optional[int],
    exact_node_limit: int,
    **options: object,
) -> SolveResult:
    if seed is not None:
        options = {**options, "seed": seed}
    if solver == "auto":
        return _auto(problem, budget, exact_node_limit, **options)

    info = get_solver(solver)
    if problem.game not in info.games:
        raise SolverError(
            f"solver {info.name!r} plays {'/'.join(info.games)}, not {problem.game!r}"
        )
    if info.families:
        fam = problem.family
        if fam is None or fam.name not in info.families:
            raise SolverError(
                f"solver {info.name!r} is restricted to the families "
                f"{'/'.join(info.families)}; the problem's DAG carries "
                f"{str(fam) if fam else 'no family tag'}"
            )
    required = info.required_r(problem)
    if required is not None and problem.r < required:
        raise SolverError(
            f"solver {info.name!r} needs r >= {required} on {problem.describe()}, "
            f"got r = {problem.r}"
        )
    if budget is not None:
        options = {**options, "budget": budget}
    return _run(info, problem, best_lower_bound(problem), **options)


#: Option value types that are recorded verbatim in telemetry.
_SCALAR_TYPES = (str, int, float, bool, type(None))


def _record_solve_telemetry(
    problem: PebblingProblem,
    solver_requested: str,
    options: dict,
    result: SolveResult,
    trace_id: Optional[str],
) -> None:
    """Append one :class:`~repro.obs.telemetry.SolveTelemetry` record to the sink.

    The record holds the instance digest and features, the requested and
    used solver, scalar options, cost, bound gap, wall time, states
    expanded and the per-attempt portfolio timings.  Nothing is computed
    when the telemetry log has no sink, or once a write to it has failed.
    A record that fails to build or write, or is skipped after such a
    failure, counts in the log's ``dropped_writes``; it never fails the solve.
    """
    log = get_telemetry_log()
    if log.sink_path is None:
        return
    if log.sink_failed:
        log.drop()
        return
    try:
        # Lazy imports: corpus.features pulls in repro.corpus, whose package
        # __init__ imports api.batch — a module-level import here would cycle.
        from ..corpus.features import extract_features
        from .cache import problem_digest

        stats = result.solve_stats
        attempts = [
            {"solver": a.solver, "wall_time_s": a.wall_time_s, "outcome": a.outcome}
            for a in (getattr(stats, "attempts", ()) or ())
        ]
        log.record(
            SolveTelemetry(
                digest=problem_digest(problem),
                solver_requested=solver_requested,
                solver_used=result.solver,
                cost=result.cost,
                lower_bound=result.lower_bound,
                gap=result.gap,
                wall_time_s=stats.wall_time_s if stats is not None else 0.0,
                states_expanded=stats.states_expanded if stats is not None else None,
                options={
                    key: value
                    for key, value in options.items()
                    if isinstance(value, _SCALAR_TYPES)
                },
                features=extract_features(problem).as_dict(),
                attempts=attempts,
                trace_id=trace_id,
                ts=time.time(),
            )
        )
    except Exception:  # noqa: BLE001 - telemetry must never break a solve
        log.drop()
