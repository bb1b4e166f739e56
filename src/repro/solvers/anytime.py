"""Anytime schedule refinement: budgeted local search over validated schedules.

The structured strategies and the greedy Belady baseline produce *valid* but
often sub-optimal pebblings, and on DAGs too large for the exhaustive A* the
library previously reported the lower-bound gap and stopped.  This module
closes part of that gap: given any legal RBP/PRBP schedule it runs a
local-search refinement under an explicit step and/or wall-clock budget and
returns a schedule that is **never costlier than its input** (cost
monotonicity is enforced by construction — a mutation is kept only when the
replay kernel of :mod:`repro.core.schedule_ir`, differentially tested against
the game engines, finds it legal, terminal and strictly cheaper; an elision
is replayed only from its first changed move, resuming from a cursor that
has already replayed the unchanged prefix).

Refinement operators
--------------------
* **I/O elision** — one forward sweep removing provably wasteful I/O: loads of
  values already in fast memory, saves of values already in slow memory,
  saves of non-sink values that are never loaded again, and
  ``delete …​ load`` round trips whose value could have stayed red (the
  Belady rule mispredicts these whenever capacity frees up shortly after an
  eviction).
* **Eviction re-decision** — the realized processing order is extracted from
  the current schedule and the whole pebbling is rebuilt by the greedy
  machinery with Belady eviction against that *realized* future; this lets a
  structured schedule borrow the baseline's eviction policy and vice versa.
* **Order perturbation** — a node is moved to a different position inside
  its topological mobility window and the schedule is rebuilt; this explores
  processing orders the deterministic heuristics never try.
* **Sliding-window move reordering** — one move is displaced within a small
  window of the move list, the mutated schedule is replayed for legality,
  and the elision pass then harvests any round trip the reordering exposed.

Determinism
-----------
All randomized operators draw from a single ``random.Random(seed)``; with a
pure step budget (no wall-clock limit) the refined schedule is a
deterministic, bit-identical function of ``(schedule, steps, seed)``.  A
wall-clock budget (``time_budget_s``) can only truncate the search earlier,
which is exactly why results produced under one are treated as
non-cacheable by :mod:`repro.api.cache`.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..core.dag import ComputationalDAG
from ..core.exceptions import PebblingError, SolverError
from ..core.schedule_ir import (
    OP_CLEAR,
    OP_COMPUTE,
    OP_DELETE,
    OP_LOAD,
    OP_SAVE,
    ReplayState,
    advance,
    replay_io_cost,
    start_state,
)
from ..core.strategy import PRBPSchedule, RBPSchedule
from ..core.variants import GameVariant
from ..obs.recorder import current_recorder
from .greedy import greedy_rbp_rows, topological_prbp_rows

__all__ = [
    "DEFAULT_REFINE_STEPS",
    "RefinementTrajectory",
    "refine_schedule",
    "schedule_io_count",
]

Schedule = Union[RBPSchedule, PRBPSchedule]

#: The refiner's working form, which is also what a schedule holds: one
#: ``(op, node, arg)`` row per move.  Every mutation operator manipulates
#: rows and every candidate is scored by the replay kernel; no Move object
#: is built.
Row = Tuple[int, int, int]

#: Default mutation-attempt budget when neither ``steps`` nor a wall-clock
#: budget is given.  Sized so the auto portfolio's final improvement pass
#: stays in the low-millisecond range on quick-tier workloads.
DEFAULT_REFINE_STEPS = 96

#: Accepted removals per elision pass; the cap only guards against
#: pathological inputs.
_MAX_ELISION_ACCEPTS = 25

#: Half-width of the sliding reorder window (moves are displaced by at most
#: this many positions in either direction).
_REORDER_WINDOW = 12


@dataclass(frozen=True)
class RefinementTrajectory:
    """How one refinement run progressed from its seed to its final schedule.

    Attributes
    ----------
    initial_cost:
        I/O cost of the schedule the refinement started from.
    refined_cost:
        I/O cost of the returned schedule (``<= initial_cost`` always).
    steps:
        Mutation attempts actually spent (each attempt scores a candidate
        schedule with the replay kernel).
    accepted:
        How many attempts produced a strictly cheaper legal schedule.
    time_to_best_s:
        Wall-clock seconds from the start of refinement until the final best
        schedule was first reached (0.0 when the seed was never improved).
    wall_time_s:
        Total wall-clock seconds spent refining.
    seed:
        RNG seed that drove the randomized operators.
    seed_solver:
        Provenance of the schedule the refinement started from (a registry
        solver name, or ``"input"``).
    """

    initial_cost: int
    refined_cost: int
    steps: int
    accepted: int
    time_to_best_s: float
    wall_time_s: float
    seed: int
    seed_solver: str = "input"

    @property
    def improvement(self) -> int:
        """I/O operations shaved off the initial schedule."""
        return self.initial_cost - self.refined_cost


# --------------------------------------------------------------------------- #
# budget & replay helpers
# --------------------------------------------------------------------------- #


class _Budget:
    """Step/wall-clock budget shared by every operator of one refinement run.

    The wall clock is consulted only when ``time_budget_s`` is set, so a
    pure step budget keeps the whole search clock-independent (and therefore
    deterministic for a fixed seed).
    """

    def __init__(self, max_steps: Optional[int], time_budget_s: Optional[float]) -> None:
        self.max_steps = max_steps
        self.time_budget_s = time_budget_s
        self.start = time.perf_counter()
        self.steps = 0

    def spend(self) -> bool:
        """Consume one mutation attempt; False once the budget is exhausted."""
        if self.max_steps is not None and self.steps >= self.max_steps:
            return False
        if (
            self.time_budget_s is not None
            and time.perf_counter() - self.start > self.time_budget_s
        ):
            return False
        self.steps += 1
        return True

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def schedule_io_count(schedule: Schedule) -> int:
    """I/O cost of a schedule taken as legal — just its I/O move count.

    The single definition of "schedule cost without a replay"; the adapter
    layer uses it to rank seed schedules (:func:`refine_schedule` replays the
    chosen one up front), and the refinement internals use it on rebuilds
    that are legal by construction.
    """
    return _io_count_rows(schedule.rows)


def _io_count_rows(rows: Sequence[Row]) -> int:
    return sum(1 for op, _, _ in rows if op <= OP_SAVE)


# --------------------------------------------------------------------------- #
# operator 1: I/O elision
# --------------------------------------------------------------------------- #


def _last_load_index(numbered: Sequence[Tuple[int, Row]], n: int) -> List[int]:
    """Per node, the move index of its last load (-1 when it is never loaded)."""
    last = [-1] * n
    for i, (op, x, _) in numbered:
        if op == OP_LOAD:
            last[x] = i
    return last


def _rbp_elision_candidates(
    dag: ComputationalDAG, numbered: Sequence[Tuple[int, Row]], variant: GameVariant
) -> List[Tuple[int, ...]]:
    """Index tuples whose removal is *plausibly* free I/O (replay decides).

    ``numbered`` holds ``(index, row)`` pairs of a legal and complete
    schedule, so the pebble state is tracked with unchecked inline
    transitions (every query reads the state *before* its own move).  The
    state is per node: the rows naming a node re-derive its candidates.
    """
    candidates: List[Tuple[int, ...]] = []
    last_load = _last_load_index(numbered, dag.n)
    red: Set[int] = set()
    blue: Set[int] = set(dag.sources)
    is_sink = dag.is_sink
    allow_delete = variant.allow_delete
    pending_delete: Dict[int, int] = {}
    for i, (op, v, s) in numbered:
        if op == OP_LOAD:
            if v in red:
                candidates.append((i,))
            elif v in pending_delete:
                # delete ... load round trip: the value could have stayed red
                candidates.append((pending_delete.pop(v), i))
            red.add(v)
        elif op == OP_SAVE:
            if v in blue:
                candidates.append((i,))
            elif not is_sink(v) and last_load[v] <= i:
                candidates.append((i,))
            blue.add(v)
            if not allow_delete:
                red.discard(v)
        elif op == OP_DELETE:
            pending_delete[v] = i
            red.discard(v)
        elif op == OP_COMPUTE:
            # a (re-)compute rewrites the value; the earlier delete no longer
            # pairs with a later load of the same content
            pending_delete.pop(v, None)
            if s >= 0:
                pending_delete.pop(s, None)
                red.discard(s)
            red.add(v)
    return candidates


# PRBP node states, as in ``core.pebbles.PRBPState`` (ints for the hot scan)
_P_NONE, _P_BLUE, _P_LIGHT, _P_DARK = 0, 1, 2, 3


def _prbp_elision_candidates(
    dag: ComputationalDAG, numbered: Sequence[Tuple[int, Row]], variant: GameVariant
) -> List[Tuple[int, ...]]:
    candidates: List[Tuple[int, ...]] = []
    last_load = _last_load_index(numbered, dag.n)
    state = [_P_NONE] * dag.n
    for v in dag.sources:
        state[v] = _P_BLUE
    is_sink = dag.is_sink
    pending_delete: Dict[int, int] = {}
    for i, (op, x, y) in numbered:
        if op == OP_LOAD:
            if state[x] == _P_LIGHT:
                candidates.append((i,))
            elif x in pending_delete:
                candidates.append((pending_delete.pop(x), i))
            if state[x] == _P_BLUE:
                state[x] = _P_LIGHT
        elif op == OP_SAVE:
            if not is_sink(x) and last_load[x] <= i:
                candidates.append((i,))
            state[x] = _P_LIGHT
        elif op == OP_DELETE:
            if state[x] == _P_LIGHT:
                pending_delete[x] = i
                state[x] = _P_BLUE
            else:
                pending_delete.pop(x, None)
                state[x] = _P_NONE
        elif op == OP_COMPUTE:
            # the head's value changes, so an earlier delete of it no longer
            # pairs with a later load of the same content
            pending_delete.pop(y, None)
            state[y] = _P_DARK
        elif op == OP_CLEAR:
            pending_delete.pop(x, None)
            state[x] = _P_NONE
    return candidates


def _rank(numbered: Sequence[Tuple[int, Row]], ranks: List[int]) -> None:
    """Set each row's occurrence rank: how many equal rows precede it."""
    counts: Dict[Row, int] = {}
    for i, row in numbered:
        ranks[i] = counts.get(row, 0)
        counts[row] = ranks[i] + 1


def _rest(items: List[Any], cand: Tuple[int, ...]) -> Iterator[Any]:
    """The items after ``cand[0]`` without the candidate's, uncopied."""
    return chain(*(islice(items, i + 1, j) for i, j in zip(cand, cand[1:] + (len(items),))))


def _marks(pending: List[Tuple[int, ...]], at: int) -> List[int]:
    """Snapshot points, latest first: starts at or past ``at`` listed after a later one."""
    marks, reach = [], at
    for cand in pending:
        if cand[0] >= reach:
            reach = cand[0]
        elif cand[0] >= at:
            marks.append(cand[0])
    return sorted(marks, reverse=True)


def _elision_pass(
    dag: ComputationalDAG,
    r: int,
    rows: List[Row],
    cost: int,
    variant: GameVariant,
    game: str,
    budget: _Budget,
    on_accept: Callable[[List[Row], int], None],
) -> Tuple[List[Row], int]:
    """Remove free I/O in one forward sweep, up to a cap or budget exhaustion.

    ``rows`` must be legal and complete (``cost`` is its I/O cost).  A
    candidate is known by its rows and their :func:`_rank`, which survive
    index shifts, so one that failed is not retried (and cannot drain the
    step budget) when a later removal re-derives it.  Each candidate is
    scored on its suffix, from a copy of a cursor that replays the rows
    once, moving forward; a round trip is listed at its load, so its delete
    can lie behind the cursor, which snapshots such starts as it passes.
    An accept leaves the rows before it, so the cursor stays valid (one
    that had passed it replays them).  Only the removed rows' node has its
    candidates re-derived, the others shift; re-derived ones can lie before
    the accept point, so the walk resumes from the head of the list.
    """
    find = _rbp_elision_candidates if game == "rbp" else _prbp_elision_candidates
    numbered = list(enumerate(rows))
    pending, ranks = find(dag, numbered, variant), [0] * len(rows)
    _rank(numbered, ranks)
    nodes, args = (list(map(itemgetter(k), rows)) for k in (1, 2))
    attempted: Set[Tuple[Tuple[Row, int], ...]] = set()
    cursor, at = start_state(dag, game), 0
    snapshots: Dict[int, ReplayState] = {}
    marks = _marks(pending, at)

    accepts, pos = 0, 0
    while pos < len(pending):
        cand = pending[pos]
        pos += 1
        if not budget.spend():
            return rows, cost
        attempted.add(tuple((rows[i], ranks[i]) for i in cand))
        first = cand[0]  # candidate indices are ascending
        if first >= at:
            while marks and marks[-1] < first:
                mark = marks.pop()
                advance(dag, r, variant, game, rows[at:mark], cursor)
                snapshots[mark], at = cursor.copy(), mark
            advance(dag, r, variant, game, rows[at:first], cursor)
            state, at = cursor.copy(), first
        else:  # behind the cursor: the snapshot there, or a replay of the prefix
            state = snapshots.pop(first, None)
            if state is None:
                state = start_state(dag, game)
                advance(dag, r, variant, game, rows[:first], state)
        trial_cost = replay_io_cost(dag, r, variant, game, _rest(rows, cand), state)
        if trial_cost is None or trial_cost >= cost:
            continue
        v, k = rows[first][1], len(cand)  # every row of a candidate names one node
        # pending candidates end after this one; a round trip's delete may not
        kept = [
            (c[0] - bisect_left(cand, c[0]), c[1] - k) if len(c) > 1 else (c[0] - k,)
            for c in pending[pos:]
            if nodes[c[0]] != v
        ]
        if first < at:
            cursor, at = start_state(dag, game), first
            advance(dag, r, variant, game, rows[:first], cursor)
        snapshots = {i: s for i, s in snapshots.items() if i < first}
        rows, ranks, nodes, args = (
            items[:first] + list(_rest(items, cand)) for items in (rows, ranks, nodes, args)
        )
        cost = trial_cost
        on_accept(rows, cost)
        accepts += 1
        if accepts == _MAX_ELISION_ACCEPTS:
            break
        named = chain(*(compress(count(), map(v.__eq__, c)) for c in (nodes, args)))
        mine = [(i, rows[i]) for i in sorted(named)]
        _rank(mine, ranks)
        fresh = [c for c in find(dag, mine, variant) if nodes[c[0]] == v]
        fresh = [c for c in fresh if tuple((rows[i], ranks[i]) for i in c) not in attempted]
        pending, pos = sorted(kept + fresh, key=itemgetter(-1)), 0
        marks = _marks(pending, at)
    return rows, cost


# --------------------------------------------------------------------------- #
# operator 2/3: realized-order extraction, Belady rebuild, order perturbation
# --------------------------------------------------------------------------- #


def _realized_order(dag: ComputationalDAG, rows: Sequence[Row], game: str) -> List[int]:
    """The node processing order the schedule actually followed.

    For RBP this is the order of first computes; for PRBP the order in which
    nodes became fully computed.  Sources are interleaved immediately before
    their first use, which preserves the locality the Belady rebuild sees.
    The result is always a topological permutation of all nodes (stragglers
    — possible only in exotic variants — are appended in DAG order).
    """
    order: List[int] = []
    placed: Set[int] = set()

    def place(v: int) -> None:
        if v not in placed:
            placed.add(v)
            order.append(v)

    if game == "rbp":
        for op, v, _ in rows:
            if op == OP_COMPUTE and v not in placed:
                for u in dag.predecessors(v):
                    if dag.is_source(u):
                        place(u)
                place(v)
    else:
        marked_in = [0] * dag.n
        for op, x, y in rows:
            if op == OP_COMPUTE:
                if dag.is_source(x):
                    place(x)
                marked_in[y] += 1
                if marked_in[y] == dag.in_degree(y):
                    place(y)
            elif op == OP_CLEAR:
                marked_in[x] = 0
    for v in dag.topological_order:
        place(v)
    return order


def _rebuild(
    dag: ComputationalDAG,
    r: int,
    order: Sequence[int],
    variant: GameVariant,
    game: str,
) -> Optional[Tuple[List[Row], int]]:
    """Greedy Belady pebbling along ``order``; None when the rebuild is infeasible.

    The greedy row builders emit legal rows by construction (a differential
    test pins them to engine-driven builders), so the cost is just the I/O
    row count — no replay.
    """
    try:
        if game == "rbp":
            rows = greedy_rbp_rows(dag, r, order, variant)
        else:
            rows = topological_prbp_rows(dag, r, order, variant)
    except (PebblingError, ValueError):
        # SolverError (infeasible r), IllegalMoveError (variant forbids the
        # builder's delete moves), ValueError (non-topological order after a
        # clear-variant extraction): all mean "no candidate from this order".
        return None
    return rows, _io_count_rows(rows)


def _perturb_order(
    dag: ComputationalDAG, order: Sequence[int], rng: random.Random
) -> Optional[List[int]]:
    """Move one node to a random other position inside its mobility window."""
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    for _ in range(8):
        v = order[rng.randrange(n)]
        lo = max((pos[u] for u in dag.predecessors(v)), default=-1) + 1
        hi = min((pos[w] for w in dag.successors(v)), default=n) - 1
        if hi <= lo:
            continue
        target = rng.randint(lo, hi)
        if target == pos[v]:
            continue
        new_order = list(order)
        new_order.pop(pos[v])
        # after removal every predecessor keeps its index and every successor
        # shifts one slot left, so [lo, hi] is exactly the legal insertion range
        new_order.insert(target, v)
        return new_order
    return None


def _displace_move(rows: Sequence[Row], rng: random.Random) -> Optional[List[Row]]:
    """Slide one move to a nearby position (window reordering mutation)."""
    n = len(rows)
    if n < 2:
        return None
    i = rng.randrange(n)
    offset = rng.randint(-_REORDER_WINDOW, _REORDER_WINDOW)
    j = max(0, min(n - 1, i + offset))
    if i == j:
        return None
    new_rows = list(rows)
    row = new_rows.pop(i)
    new_rows.insert(j, row)
    return new_rows


# --------------------------------------------------------------------------- #
# the refinement driver
# --------------------------------------------------------------------------- #


def refine_schedule(
    schedule: Schedule,
    *,
    steps: Optional[int] = None,
    time_budget_s: Optional[float] = None,
    seed: int = 0,
    origin: str = "input",
    on_improve: Optional[Callable[[int, float], None]] = None,
    verified_cost: Optional[int] = None,
) -> Tuple[Schedule, RefinementTrajectory]:
    """Refine a legal schedule under a step and/or wall-clock budget.

    Parameters
    ----------
    schedule:
        A *valid* :class:`RBPSchedule` or :class:`PRBPSchedule`; unless
        ``verified_cost`` is given it is replayed once up front
        (``schedule.stats()``, the replay kernel) and an illegal input
        raises immediately.
    steps:
        Mutation-attempt budget.  ``None`` means
        :data:`DEFAULT_REFINE_STEPS`, unless a wall-clock budget is given
        (then the clock alone bounds the search).  ``0`` disables every
        operator and returns the input itself (with a trajectory).
    time_budget_s:
        Optional wall-clock ceiling in seconds.  Results produced under a
        wall-clock budget are machine-dependent and must not be cached.
    seed:
        Seed for the randomized operators; fixing ``(steps, seed)`` makes
        the result bit-identical across runs and processes.
    origin:
        Provenance label recorded in the trajectory (a solver name).
    on_improve:
        Optional anytime-progress hook called as ``on_improve(cost,
        elapsed_s)`` — once with the seed schedule's cost before the search
        starts, then on every *accepted* mutation (costs are strictly
        decreasing after the first call).  The hook does not influence the
        search; an exception it raises propagates to the caller.
    verified_cost:
        The input's I/O cost as a replay already established it (the
        solve pipeline replays every solver's schedule before refining
        it).  Given, the up-front replay is skipped and this cost
        is trusted; the caller vouches that the schedule is legal.

    Returns
    -------
    (schedule, trajectory):
        The refined schedule — never costlier than the input, and the
        input object itself when no mutation was accepted — and the
        :class:`RefinementTrajectory` describing the run.  Inside a solve
        the trajectory is also stored on the solve's
        :class:`~repro.obs.recorder.SolveRecorder`.
    """
    game = schedule.game
    dag, r, variant = schedule.dag, schedule.r, schedule.variant

    initial_cost = verified_cost
    if initial_cost is None:
        try:
            initial_cost = schedule.stats().io_cost
        except PebblingError as exc:
            raise SolverError(
                "refine_schedule() requires a legal, complete input schedule; "
                f"the given {game.upper()} schedule does not replay"
            ) from exc

    if time_budget_s is None and steps is None:
        steps = DEFAULT_REFINE_STEPS
    budget = _Budget(steps, time_budget_s)
    rng = random.Random(seed)

    # the search runs on the schedule's own rows, scored by the replay kernel;
    # every operator builds new lists, so the input's rows are never changed
    best_rows: List[Row] = schedule.rows
    best_cost = initial_cost
    accepted = 0
    time_to_best = 0.0

    def on_accept(rows: List[Row], cost: int) -> None:
        nonlocal best_rows, best_cost, accepted, time_to_best
        best_rows, best_cost = rows, cost
        accepted += 1
        time_to_best = budget.elapsed()
        if on_improve is not None:
            on_improve(cost, time_to_best)

    if on_improve is not None:
        on_improve(initial_cost, 0.0)

    # deterministic phase 1: strip free I/O from the seed itself
    best_rows, best_cost = _elision_pass(
        dag, r, best_rows, best_cost, variant, game, budget, on_accept
    )

    # deterministic phase 2: eviction re-decision against the realized future
    if budget.spend():
        rebuilt = _rebuild(dag, r, _realized_order(dag, best_rows, game), variant, game)
        if rebuilt is not None and rebuilt[1] < best_cost:
            on_accept(*rebuilt)
            best_rows, best_cost = _elision_pass(
                dag, r, best_rows, best_cost, variant, game, budget, on_accept
            )

    # randomized phase: order perturbations and window reorderings; the
    # realized order is derived once per accepted ``best_rows``
    order_of: Tuple[Optional[List[Row]], List[int]] = (None, [])
    while budget.spend():
        if rng.random() < 0.6:
            if order_of[0] is not best_rows:
                order_of = (best_rows, _realized_order(dag, best_rows, game))
            order = _perturb_order(dag, order_of[1], rng)
            candidate = None if order is None else _rebuild(dag, r, order, variant, game)
            if candidate is not None and candidate[1] < best_cost:
                on_accept(*candidate)
                best_rows, best_cost = _elision_pass(
                    dag, r, best_rows, best_cost, variant, game, budget, on_accept
                )
        else:
            reordered = _displace_move(best_rows, rng)
            if reordered is None:
                continue
            cost = replay_io_cost(dag, r, variant, game, reordered)
            if cost is None:
                continue
            # reordering alone never changes the I/O count — its value is the
            # round trips it exposes to the elision peephole
            trial_rows, trial_cost = _elision_pass(
                dag, r, reordered, cost, variant, game, budget, lambda m, c: None
            )
            if trial_cost < best_cost:
                on_accept(trial_rows, trial_cost)

    # rows change only on a strictly cheaper accept, so an unimproved run
    # hands back its input instead of an identical copy
    refined = schedule
    if best_cost < initial_cost:
        refined = type(schedule).from_rows(
            dag,
            r,
            best_rows,
            variant=variant,
            description=f"anytime refinement of {origin} (seed={seed})",
        )
    trajectory = RefinementTrajectory(
        initial_cost=initial_cost,
        refined_cost=best_cost,
        steps=budget.steps,
        accepted=accepted,
        time_to_best_s=time_to_best,
        wall_time_s=budget.elapsed(),
        seed=seed,
        seed_solver=origin,
    )
    recorder = current_recorder()
    if recorder is not None:
        recorder.refinement = trajectory
    return refined, trajectory
