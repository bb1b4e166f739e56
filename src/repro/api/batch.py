""":func:`solve_many` — batch solving with caching and process fan-out.

The sweeps, comparisons and the benchmark runner all reduce to "solve this
list of problems"; this module gives them one entry point that

1. computes a content digest per problem (:func:`~repro.api.cache.problem_digest`),
2. answers what it can from a :class:`~repro.api.cache.ResultCache`,
3. dedupes identical misses inside the batch,
4. fans the remaining misses out over a ``ProcessPoolExecutor`` when
   ``jobs > 1`` — with per-task timeouts and a graceful fallback to serial
   execution when worker processes cannot be used — and
5. returns results in input order, each the exact object a serial
   ``solve()`` loop would have produced.

Determinism is a contract, not an accident: every solver in the library is
deterministic, results are collected by input index, and the cache digest
covers everything a solver can observe, so ``solve_many(problems)`` ==
``[solve(p) for p in problems]`` (up to wall-clock timing in
``solve_stats``) with or without caching and parallelism.  The test suite
asserts exactly that.

Workers inherit the solver registry by module import, so custom solvers
registered at import time are available in children; solvers registered
dynamically after interpreter start are visible only under the ``fork``
start method (the Linux default).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.exceptions import SolverError
from ..obs.tracing import TraceContext, reset_current_trace, set_current_trace
from .cache import ResultCache, cacheable_options, problem_digest
from .dispatch import AUTO_EXACT_NODE_LIMIT, solve
from .problem import PebblingProblem
from .result import SolveResult

__all__ = ["solve_many", "solve_many_detailed", "solve_task", "BatchInfo"]

#: One slot of the output list: a result, or the :class:`SolverError` the
#: problem raised (only with ``return_exceptions=True``).
Outcome = Union[SolveResult, SolverError]


@dataclass
class BatchInfo:
    """What :func:`solve_many_detailed` did for each input problem."""

    #: Per-problem: answered from the cache (False for every problem when no
    #: cache was passed).
    cache_hits: List[bool] = field(default_factory=list)
    #: Per-problem content digest (always computed — it also drives in-batch
    #: dedup of identical problems).
    digests: List[Optional[str]] = field(default_factory=list)
    #: True iff at least one miss was solved in a worker process.
    used_processes: bool = False
    #: Why the process pool was abandoned, if it was requested but unusable.
    fallback_reason: Optional[str] = None


def _solve_repeated(
    problem: PebblingProblem,
    solver: str,
    options: Mapping[str, object],
    repeats: int,
) -> SolveResult:
    """``solve()`` run ``repeats`` times; the fastest run is returned.

    Results are deterministic across repeats, so only the timing differs —
    this mirrors the benchmark runner's min-of-N policy.
    """
    best: Optional[SolveResult] = None
    for _ in range(max(1, repeats)):
        result = solve(problem, solver=solver, **dict(options))
        if best is None or best.solve_stats is None:
            best = result
        elif (
            result.solve_stats is not None
            and result.solve_stats.wall_time_s < best.solve_stats.wall_time_s
        ):
            best = result
    return best


def solve_task(payload: Tuple[PebblingProblem, str, Dict, int, Optional[Dict]]) -> Tuple[str, Any]:
    """Pool task of the batch layer and the service: ``("ok", result)`` or
    ``("solver_error", exc)``.

    The payload is ``(problem, solver, options, repeats, trace_wire)``.
    Only :class:`SolverError` travels back as data (it is an expected
    per-problem outcome); any other exception propagates through the
    future.  A trace context in wire form is installed around the solve,
    so the spans a worker emits join the caller's trace.
    """
    problem, solver, options, repeats, trace_wire = payload
    ctx = TraceContext.from_wire(trace_wire) if trace_wire else None
    token = set_current_trace(ctx) if ctx is not None else None
    try:
        return ("ok", _solve_repeated(problem, solver, options, repeats))
    except SolverError as exc:
        return ("solver_error", exc)
    finally:
        if token is not None:
            reset_current_trace(token)


def _snapshot_workers(executor: ProcessPoolExecutor) -> List[object]:
    """The executor's worker processes, captured *before* shutdown clears them.

    Reaches into ``_processes``; guarded so a stdlib layout change degrades
    to the old keep-running behaviour instead of crashing.
    """
    try:
        return list((getattr(executor, "_processes", None) or {}).values())
    except Exception:  # pragma: no cover — defensive against stdlib internals
        return []


def _terminate_workers(workers: List[object]) -> None:
    """Kill worker processes still chewing on timed-out tasks.

    ``Future.cancel()`` cannot stop a *running* task, and concurrent.futures
    registers an atexit hook that joins workers — without this, a timed-out
    hour-long solve would keep the interpreter alive for the full hour after
    ``solve_many`` returned.  Every still-running task at this point has
    already been reported as timed out (finished tasks' results were
    collected before shutdown), so killing the processes loses nothing.
    """
    for process in workers:
        try:
            process.terminate()
        except Exception:  # pragma: no cover — already-dead workers etc.
            pass


def _normalise_solvers(solver: Union[str, Sequence[str]], count: int) -> List[str]:
    if isinstance(solver, str):
        return [solver] * count
    solvers = list(solver)
    if len(solvers) != count:
        raise ValueError(
            f"got {len(solvers)} solver names for {count} problems; "
            "pass one name, or exactly one per problem"
        )
    return solvers


def _normalise_options(
    base: Mapping[str, object],
    per_problem: Optional[Sequence[Mapping[str, object]]],
    count: int,
) -> List[Dict[str, object]]:
    if per_problem is None:
        return [dict(base) for _ in range(count)]
    merged = [dict(base, **dict(extra)) for extra in per_problem]
    if len(merged) != count:
        raise ValueError(f"got {len(merged)} per-problem option maps for {count} problems")
    return merged


def solve_many_detailed(
    problems: Sequence[PebblingProblem],
    solver: Union[str, Sequence[str]] = "auto",
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    budget: Optional[int] = None,
    seed: Optional[int] = None,
    exact_node_limit: int = AUTO_EXACT_NODE_LIMIT,
    timeout_s: Optional[float] = None,
    repeats: int = 1,
    return_exceptions: bool = False,
    per_problem_options: Optional[Sequence[Mapping[str, object]]] = None,
    **options: object,
) -> Tuple[List[Outcome], BatchInfo]:
    """:func:`solve_many` plus a :class:`BatchInfo` describing the run."""
    problems = list(problems)
    n = len(problems)
    solvers = _normalise_solvers(solver, n)
    if budget is not None:
        options = {**options, "budget": budget}
    if seed is not None:
        options = {**options, "seed": seed}
    if exact_node_limit != AUTO_EXACT_NODE_LIMIT:
        # only a non-default limit goes into the options (and the digest):
        # solve() behaves identically either way for the default, and keeping
        # the default implicit makes problem_digest(p) == the digest used here
        options = {**options, "exact_node_limit": exact_node_limit}
    all_options = _normalise_options(options, per_problem_options, n)
    # A solve under an active wall-clock budget is non-deterministic: its
    # digest deliberately omits the budget, so it must bypass the cache *and*
    # the in-batch dedup (two time-budgeted solves are not interchangeable).
    cacheable = [cacheable_options(all_options[i]) for i in range(n)]

    info = BatchInfo(cache_hits=[False] * n, digests=[None] * n)
    outcomes: List[Optional[Outcome]] = [None] * n

    # 1. + 2. — digest everything (dedup needs digests even without a
    # cache), answer hits from the cache
    pending: List[int] = []
    for i, problem in enumerate(problems):
        digest = problem_digest(problem, solver=solvers[i], options=all_options[i])
        info.digests[i] = digest
        if cache is not None and cacheable[i]:
            hit = cache.get(problem, digest)
            if hit is not None:
                outcomes[i] = hit
                info.cache_hits[i] = True
                continue
        pending.append(i)

    # 3. — identical misses are solved once; equal digests imply equal outcomes
    representative: Dict[str, int] = {}
    duplicates: Dict[int, int] = {}
    unique_pending: List[int] = []
    for i in pending:
        digest = info.digests[i]
        if not cacheable[i]:
            unique_pending.append(i)
            continue
        if digest in representative:
            duplicates[i] = representative[digest]
            continue
        representative[digest] = i
        unique_pending.append(i)

    # 4. — solve the misses, in workers when asked and possible.  A single
    # miss normally runs in-process, but a requested timeout still needs a
    # worker (a serial solve cannot be pre-empted).
    remaining = list(unique_pending)
    use_pool = jobs is not None and jobs > 1 and (
        len(remaining) > 1 or (timeout_s is not None and len(remaining) == 1)
    )
    if use_pool:
        executor: Optional[ProcessPoolExecutor] = None
        timed_out = False
        try:
            executor = ProcessPoolExecutor(max_workers=min(jobs, len(remaining)))
            futures = {
                i: executor.submit(
                    solve_task, (problems[i], solvers[i], all_options[i], repeats, None)
                )
                for i in remaining
            }
            still_serial: List[int] = []
            for i in remaining:
                try:
                    tag, value = futures[i].result(timeout=timeout_s)
                    outcomes[i] = value
                    info.used_processes = True
                except FutureTimeoutError:
                    futures[i].cancel()
                    timed_out = True
                    outcomes[i] = SolverError(
                        f"solve timed out after {timeout_s}s on {problems[i].describe()} "
                        "(the worker was terminated)"
                    )
                except Exception as exc:  # noqa: BLE001 — a broken pool, not a solver failure
                    # The pool died under this task (or could not run it at
                    # all); fall back to solving it in-process so a flaky
                    # environment degrades to serial throughput, not errors.
                    info.fallback_reason = f"{type(exc).__name__}: {exc}"
                    still_serial.append(i)
            remaining = still_serial
        except (OSError, RuntimeError, PermissionError) as exc:
            # Pool creation itself failed (sandboxed platform, missing
            # semaphores, spawn restrictions, ...): run everything serially.
            info.fallback_reason = f"{type(exc).__name__}: {exc}"
        finally:
            if executor is not None:
                workers = _snapshot_workers(executor) if timed_out else []
                executor.shutdown(wait=False, cancel_futures=True)
                _terminate_workers(workers)

    if remaining and timeout_s is not None and info.fallback_reason is not None:
        warnings.warn(
            f"solve_many: worker processes unavailable ({info.fallback_reason}); "
            f"{len(remaining)} problem(s) run serially and timeout_s={timeout_s} "
            "is not enforced on them",
            RuntimeWarning,
            stacklevel=3,
        )
    for i in remaining:
        try:
            outcomes[i] = _solve_repeated(problems[i], solvers[i], all_options[i], repeats)
        except SolverError as exc:
            outcomes[i] = exc

    # store fresh results, then mirror representatives onto their duplicates
    if cache is not None:
        for i in unique_pending:
            if isinstance(outcomes[i], SolveResult) and cacheable[i]:
                cache.put(info.digests[i], outcomes[i])
    for i, rep in duplicates.items():
        outcomes[i] = outcomes[rep]

    # 5. — input order is already guaranteed; surface errors per policy
    if not return_exceptions:
        for outcome in outcomes:
            if isinstance(outcome, SolverError):
                raise outcome
    return list(outcomes), info


def solve_many(
    problems: Sequence[PebblingProblem],
    solver: Union[str, Sequence[str]] = "auto",
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    budget: Optional[int] = None,
    seed: Optional[int] = None,
    exact_node_limit: int = AUTO_EXACT_NODE_LIMIT,
    timeout_s: Optional[float] = None,
    repeats: int = 1,
    return_exceptions: bool = False,
    per_problem_options: Optional[Sequence[Mapping[str, object]]] = None,
    **options: object,
) -> List[Outcome]:
    """Solve a batch of problems; results come back in input order.

    Parameters
    ----------
    problems:
        The instances to solve.
    solver:
        One registered solver name (or ``"auto"``) for the whole batch, or a
        sequence naming one solver per problem.
    jobs:
        Fan misses out over up to this many worker processes; ``None``/``1``
        solves serially in-process.  A pool that cannot be created or dies
        mid-run degrades to serial execution instead of failing the batch.
    cache:
        A :class:`~repro.api.cache.ResultCache`; hits skip solving entirely
        and fresh results are stored back.  ``None`` disables caching.
        Problems solved under an active wall-clock budget
        (``time_budget_s``) bypass the cache and the in-batch dedup — their
        results are machine-dependent, so neither sharing nor storing them
        is sound.
    budget, seed, exact_node_limit, options:
        Forwarded to every :func:`repro.api.solve` call (see there); ``seed``
        drives the anytime refinement engine, so a fixed seed keeps batch
        results bit-identical to a serial ``solve()`` loop.
    timeout_s:
        Per-task ceiling, enforced while collecting parallel results; a
        task over budget yields a :class:`SolverError` and its worker
        process is terminated once the batch has been collected.  Ignored
        in serial execution, where a running solver cannot be pre-empted.
    repeats:
        Timed ``solve()`` calls per miss (the fastest run is kept) — for
        benchmark use; results are identical across repeats.
    return_exceptions:
        When True, a problem failing with :class:`SolverError` contributes
        the exception object at its position instead of aborting the batch.
        Any other exception always propagates.
    per_problem_options:
        Optional sequence of option mappings merged over ``options`` for the
        corresponding problem (the benchmark runner's scenarios each carry
        their own solver options).
    """
    outcomes, _ = solve_many_detailed(
        problems,
        solver,
        jobs=jobs,
        cache=cache,
        budget=budget,
        seed=seed,
        exact_node_limit=exact_node_limit,
        timeout_s=timeout_s,
        repeats=repeats,
        return_exceptions=return_exceptions,
        per_problem_options=per_problem_options,
        **options,
    )
    return outcomes
