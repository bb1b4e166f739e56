"""Restarting elision pass: the differential oracle of ``anytime._elision_pass``.

This is the I/O elision pass as it was written before it became one forward
sweep: every accepted removal ends the sweep, and the next sweep rebuilds
the rank table, the candidate list and the signatures, then replays its
cursor from row 0.  ``tests/test_anytime_properties.py::TestElisionOracle``
asserts that the library's pass returns the same rows and cost, reports
the same accepts and spends the same budget steps as this one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.core.dag import ComputationalDAG
from repro.core.schedule_ir import (
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
from repro.core.variants import GameVariant
from repro.solvers.anytime import _Budget

__all__ = ["MAX_SWEEPS", "oracle_elision_pass"]

Row = Tuple[int, int, int]

#: Elision sweeps per pass; each sweep ends at its accept, so this caps the
#: accepts of one pass.
MAX_SWEEPS = 25


def _last_load_index(rows: Sequence[Row], n: int) -> List[int]:
    """Per node, the move index of its last load (-1 when it is never loaded)."""
    last = [-1] * n
    for i, (op, x, _) in enumerate(rows):
        if op == OP_LOAD:
            last[x] = i
    return last


def _rbp_elision_candidates(
    dag: ComputationalDAG, r: int, rows: Sequence[Row], variant: GameVariant
) -> List[Tuple[int, ...]]:
    """Index tuples whose removal is *plausibly* free I/O (replay decides).

    ``rows`` is always the current best schedule — legal and complete — so
    the pebble state is tracked with unchecked inline transitions instead of
    a full engine walk (every query reads the state *before* its own move,
    exactly as the engine-walk version did).
    """
    candidates: List[Tuple[int, ...]] = []
    last_load = _last_load_index(rows, dag.n)
    red: Set[int] = set()
    blue: Set[int] = set(dag.sources)
    is_sink = dag.is_sink
    allow_delete = variant.allow_delete
    pending_delete: Dict[int, int] = {}
    for i, (op, v, s) in enumerate(rows):
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
    dag: ComputationalDAG, r: int, rows: Sequence[Row], variant: GameVariant
) -> List[Tuple[int, ...]]:
    candidates: List[Tuple[int, ...]] = []
    last_load = _last_load_index(rows, dag.n)
    state = [_P_NONE] * dag.n
    for v in dag.sources:
        state[v] = _P_BLUE
    is_sink = dag.is_sink
    pending_delete: Dict[int, int] = {}
    for i, (op, x, y) in enumerate(rows):
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


def oracle_elision_pass(
    dag: ComputationalDAG,
    r: int,
    rows: List[Row],
    cost: int,
    variant: GameVariant,
    game: str,
    budget: _Budget,
    on_accept: Callable[[List[Row], int], None],
) -> Tuple[List[Row], int]:
    """Repeatedly remove free I/O until a fixed point (or budget exhaustion).

    ``rows`` must be legal and complete (``cost`` is its I/O cost).  A
    candidate is identified by its rows plus their occurrence ranks (how
    many equal rows precede each).  Candidate indices shift after every
    successful removal; the signature survives the shift, so a candidate
    that failed once (e.g. a round trip whose removal would overflow
    capacity) is not retried on every sweep — failed retries would
    otherwise silently drain the step budget.  Rows are a bijective image
    of Move objects (:func:`repro.core.moves.encode_moves`), so the dedup
    classes are those of the moves.  Rows change only on an accept, which
    ends the sweep, so the ranks are computed once per sweep.

    A removal leaves the rows before its first dropped index untouched, so
    each candidate is scored on its suffix alone, from a copy of a cursor
    that replays the sweep's rows once, moving forward.  A round trip is
    listed at its load, after candidates that lie inside it, so its delete
    can start behind the cursor.  The list is fixed before any scoring, so
    the cursor snapshots each such start as it passes it and the round trip
    resumes from that snapshot instead of from row 0.
    """
    find = _rbp_elision_candidates if game == "rbp" else _prbp_elision_candidates
    attempted: Set[Tuple[Tuple[Row, int], ...]] = set()
    for _ in range(MAX_SWEEPS):
        counts: Dict[Row, int] = {}
        ranks: List[int] = []
        for row in rows:
            rank = counts.get(row, 0)
            ranks.append(rank)
            counts[row] = rank + 1
        # sigs are unique within a sweep, so the untried list is fixed up front
        untried = []
        for cand in find(dag, r, rows, variant):
            sig = tuple((rows[i], ranks[i]) for i in cand)
            if sig not in attempted:
                untried.append((cand, sig))
        marks, reach = [], -1  # starts listed behind an earlier candidate's
        for cand, _ in untried:
            if cand[0] < reach:
                marks.append(cand[0])
            else:
                reach = cand[0]
        marks.sort()
        snapshots: Dict[int, ReplayState] = {}
        cursor, at, passed = start_state(dag, game), 0, 0  # marks[:passed] snapshotted
        improved = False
        for cand, sig in untried:
            if not budget.spend():
                return rows, cost
            attempted.add(sig)
            first = cand[0]  # candidate indices are ascending
            if first < at:  # a mark: its snapshot was taken when the cursor passed it
                cursor, at = snapshots.pop(first), first
            while passed < len(marks) and marks[passed] < first:
                mark = marks[passed]
                advance(dag, r, variant, game, rows[at:mark], cursor)
                snapshots[mark], at, passed = cursor.copy(), mark, passed + 1
            advance(dag, r, variant, game, rows[at:first], cursor)
            at = first
            suffix: List[Row] = []
            for i, j in zip(cand, cand[1:] + (len(rows),)):
                suffix += rows[i + 1 : j]
            trial_cost = replay_io_cost(dag, r, variant, game, suffix, cursor.copy())
            if trial_cost is not None and trial_cost < cost:
                rows, cost = rows[:first] + suffix, trial_cost
                on_accept(rows, cost)
                improved = True
                break  # indices shifted; re-derive candidates
        if not improved:
            return rows, cost
    return rows, cost
