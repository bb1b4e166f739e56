"""Greedy pebbling heuristics: topological processing with Belady-style eviction.

These solvers produce *valid* (not necessarily optimal) schedules for DAGs of
any size and are used as upper-bound baselines in the benchmarks and as
work-horses in the examples and the anytime refiner:

* :func:`topological_prbp_rows` — the strategy sketched in Section 3 of the
  paper: process the edges in a topological order of their heads, loading
  inputs and saving partial values on demand.  It produces a valid PRBP
  pebbling for every DAG as soon as ``r >= 2``.
* :func:`greedy_rbp_rows` — the classic RBP analogue: compute the nodes in
  topological order, gathering all inputs in fast memory; valid whenever
  ``r >= Δ_in + 1``.

Both use the same eviction rule: when a slot is needed, prefer pebbles that
can be dropped for free (already saved, or never needed again), and
otherwise save-and-drop the pebble whose next use is furthest in the future
(the offline Belady rule applied to the fixed processing order).

The builders track the game state in plain ints (a red set plus per-node
bytearrays) and append ``(op, node, arg)`` rows of
:mod:`repro.core.schedule_ir`; they never drive the game engine.  The rows
are legal by construction, and the differential tests pin them, row for row
and failure for failure, to an engine-driven copy of the same strategy.
:func:`topological_prbp_schedule` and :func:`greedy_rbp_schedule` wrap the
rows as a schedule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..core.dag import ComputationalDAG
from ..core.exceptions import IllegalMoveError, IncompletePebblingError, SolverError
from ..core.schedule_ir import (
    OP_COMPUTE,
    OP_DELETE,
    OP_LOAD,
    OP_SAVE,
    MoveRow,
    _dag_data,
    decode_moves,
)
from ..core.strategy import PRBPSchedule, RBPSchedule
from ..core.variants import ONE_SHOT, GameVariant

__all__ = [
    "topological_prbp_schedule",
    "greedy_rbp_schedule",
    "topological_prbp_rows",
    "greedy_rbp_rows",
]

_DESCRIPTION = "topological greedy (Belady eviction)"

# PRBP node states, as in PRBPState and the replay kernel
_NONE, _BLUE, _LIGHT, _DARK = 0, 1, 2, 3


def _next_use_table(order: Sequence[Tuple[int, ...]], n: int) -> List[List[int]]:
    """For each node, the sorted list of positions in ``order`` where it participates."""
    uses: List[List[int]] = [[] for _ in range(n)]
    for pos, nodes in enumerate(order):
        for v in nodes:
            uses[v].append(pos)
    return uses


def _next_use_after(uses: List[int], pos: int) -> float:
    """First use strictly after ``pos`` (``inf`` when the node is never used again)."""
    # uses is sorted; linear scan is fine because lists are short and consumed in order
    for p in uses:
        if p > pos:
            return p
    return float("inf")


def _order_positions(
    dag: ComputationalDAG, topo_order: Optional[Sequence[int]]
) -> Tuple[List[int], List[int]]:
    """``(order, pos)`` with ``pos[v]`` the index of ``v``; ``ValueError`` unless topological."""
    order = list(topo_order) if topo_order is not None else list(dag.topological_order)
    if len(order) != dag.n or set(order) != set(range(dag.n)):
        raise ValueError("topo_order must be a permutation of all nodes")
    pos = [0] * dag.n
    for i, v in enumerate(order):
        pos[v] = i
    for u, v in dag.edges:
        if pos[u] >= pos[v]:
            raise ValueError("topo_order is not a topological order of the DAG")
    return order, pos


def topological_prbp_rows(
    dag: ComputationalDAG,
    r: int,
    topo_order: Optional[Sequence[int]] = None,
    variant: GameVariant = ONE_SHOT,
) -> List[MoveRow]:
    """Greedy PRBP pebbling as IR rows: aggregate each node's in-edges in topological order.

    Parameters
    ----------
    dag, r:
        The instance; any ``r >= 2`` admits a valid pebbling (``r >= 1``
        suffices for edge-less DAGs).
    topo_order:
        Optional node order to follow (must be a topological order of
        ``dag``); defaults to the DAG's own order.  Structured callers (e.g.
        the matrix–vector strategy) pass tailored orders to get better
        locality.
    variant:
        The rules the rows must obey.  The sliding variant does not apply
        to PRBP (``ValueError``); under no-deletion an eviction that would
        delete a dark red pebble raises :class:`IllegalMoveError`.
    """
    if r < 2 and dag.m > 0:
        raise SolverError(f"the topological PRBP strategy needs r >= 2, got r = {r}")
    order, pos_of = _order_positions(dag, topo_order)
    # the checks PRBPGame makes before the first move
    if r < 1:
        raise ValueError(f"fast memory capacity must be >= 1, got {r}")
    if variant.allow_sliding:
        raise ValueError(
            "the sliding variant only applies to RBP; PRBP partial computes are already in-place"
        )
    dag.validate_no_isolated()

    data = _dag_data(dag)
    preds, indeg, outdeg, is_sink = data.preds, data.indeg, data.outdeg, data.is_sink
    allow_delete = variant.allow_delete
    # Edge processing sequence: all in-edges of each node, nodes in order.
    edge_sequence: List[Tuple[int, int]] = [
        (u, v) for v in order for u in sorted(preds[v], key=pos_of.__getitem__)
    ]
    uses = _next_use_table(edge_sequence, dag.n)

    state = bytearray(data.is_source)  # sources start BLUE, every other node NONE
    marked_in = [0] * dag.n
    marked_out = [0] * dag.n
    # the nodes holding a red pebble: loads and computes add one, only the
    # eviction below removes one (the final sink saves keep it red)
    red: Set[int] = set()
    rows: List[MoveRow] = []

    def freely_deletable(v: int) -> bool:
        st = state[v]
        if st == _LIGHT:
            return True
        # An unsaved dark red sink must never be dropped (it still has to
        # reach slow memory), so it only qualifies after a save.
        return (
            st == _DARK
            and not is_sink[v]
            and marked_out[v] == outdeg[v]
            and marked_in[v] == indeg[v]
        )

    def evict(pos: int, protected: int) -> None:
        """Free one fast-memory slot, never touching the ``protected`` node (-1: none)."""
        # candidates: every red node but the protected one, ascending (the
        # order ``max`` breaks ties in)
        candidates = [v for v in sorted(red) if v != protected]
        if not candidates:
            raise SolverError(
                f"cannot free a fast-memory slot at position {pos}: all {r} red pebbles are in use"
            )
        free_candidates = [v for v in candidates if freely_deletable(v)]
        pool = free_candidates if free_candidates else candidates
        victim = max(pool, key=lambda v: _next_use_after(uses[v], pos))
        if not free_candidates:
            # every candidate holds an unsaved dark red value
            rows.append((OP_SAVE, victim, -1))
            state[victim] = _LIGHT
        if state[victim] == _LIGHT:
            state[victim] = _BLUE
        elif not allow_delete:
            raise IllegalMoveError(
                "in the no-deletion variant a dark red pebble can only be removed by saving it"
            )
        else:
            state[victim] = _NONE
        rows.append((OP_DELETE, victim, -1))
        red.discard(victim)

    for pos, (u, v) in enumerate(edge_sequence):
        # 1. make sure u is in fast memory (it is BLUE: a source, or saved)
        if state[u] < _LIGHT:
            if len(red) >= r:
                evict(pos, v if state[v] >= _LIGHT else -1)
            rows.append((OP_LOAD, u, -1))
            state[u] = _LIGHT
            red.add(u)
        # 2. make sure v can receive the dark red pebble
        stv = state[v]
        if stv == _BLUE or stv == _NONE:
            # v takes a new slot
            if len(red) >= r:
                evict(pos, u)
            if stv == _BLUE:
                rows.append((OP_LOAD, v, -1))
        # 3. aggregate
        rows.append((OP_COMPUTE, u, v))
        state[v] = _DARK
        marked_in[v] += 1
        marked_out[u] += 1
        red.add(v)

    for v in data.sinks:
        if state[v] == _DARK:
            rows.append((OP_SAVE, v, -1))
            state[v] = _LIGHT
    # every edge was aggregated exactly once; what is left is the sinks
    missing = [v for v in data.sinks if state[v] != _BLUE and state[v] != _LIGHT]
    if missing:
        raise IncompletePebblingError(
            f"PRBP pebbling incomplete: sinks without a blue pebble: {sorted(missing)}"
        )
    return rows


def topological_prbp_schedule(
    dag: ComputationalDAG,
    r: int,
    topo_order: Optional[Sequence[int]] = None,
    variant: GameVariant = ONE_SHOT,
) -> PRBPSchedule:
    """Greedy PRBP pebbling: :func:`topological_prbp_rows` as a schedule."""
    moves = decode_moves("prbp", topological_prbp_rows(dag, r, topo_order, variant))
    return PRBPSchedule(dag, r, moves, variant=variant, description=_DESCRIPTION)


def greedy_rbp_rows(
    dag: ComputationalDAG,
    r: int,
    topo_order: Optional[Sequence[int]] = None,
    variant: GameVariant = ONE_SHOT,
) -> List[MoveRow]:
    """Greedy RBP pebbling as IR rows: compute nodes in topological order with Belady eviction.

    Requires ``r >= Δ_in + 1`` (otherwise no RBP pebbling exists at all).
    Under no-deletion every eviction raises :class:`IllegalMoveError`.
    """
    if r < dag.max_in_degree + 1:
        raise SolverError(
            f"no valid RBP pebbling exists: r = {r} < max in-degree + 1 = {dag.max_in_degree + 1}"
        )
    order, pos_of = _order_positions(dag, topo_order)
    dag.validate_no_isolated()  # the check RBPGame makes before the first move

    data = _dag_data(dag)
    preds, is_source = data.preds, data.is_source
    allow_delete = variant.allow_delete
    steps = [preds[v] + (v,) for v in order if not is_source[v]]
    uses = _next_use_table(steps, dag.n)

    # Victims are picked by iterating ``red``, so its add/discard history is
    # that of RBPGame.red: a load or compute adds, a delete removes and, under
    # no-deletion, so does a save (there every eviction fails: it needs a
    # delete).
    red: Set[int] = set()
    blue = bytearray(is_source)
    rows: List[MoveRow] = []

    def evict(pos: int, v: int) -> None:
        """Free one fast-memory slot, never touching ``v`` or its inputs."""
        inputs = preds[v]
        candidates = [w for w in red if w != v and w not in inputs]
        if not candidates:
            raise SolverError(
                f"cannot free a fast-memory slot at step {pos}: all {r} red pebbles are protected"
            )
        if not allow_delete:
            raise IllegalMoveError(
                "delete moves are forbidden in the no-deletion variant (Appendix B.4)"
            )
        free_candidates = [w for w in candidates if blue[w]]
        pool = free_candidates if free_candidates else candidates
        victim = max(pool, key=lambda w: _next_use_after(uses[w], pos))
        if not blue[victim]:
            rows.append((OP_SAVE, victim, -1))
            blue[victim] = 1
        rows.append((OP_DELETE, victim, -1))
        red.remove(victim)

    step_index = 0
    for v in order:
        if is_source[v]:
            continue
        for u in sorted(preds[v], key=pos_of.__getitem__):
            if u not in red:
                if len(red) >= r:
                    evict(step_index, v)
                rows.append((OP_LOAD, u, -1))
                red.add(u)
        if len(red) >= r:
            evict(step_index, v)
        rows.append((OP_COMPUTE, v, -1))
        red.add(v)
        if data.is_sink[v]:
            rows.append((OP_SAVE, v, -1))
            blue[v] = 1
            if not allow_delete:
                red.discard(v)
        step_index += 1

    missing = [v for v in data.sinks if not blue[v]]
    if missing:
        raise IncompletePebblingError(
            f"RBP pebbling incomplete: sinks without a blue pebble: {sorted(missing)}"
        )
    return rows


def greedy_rbp_schedule(
    dag: ComputationalDAG,
    r: int,
    topo_order: Optional[Sequence[int]] = None,
    variant: GameVariant = ONE_SHOT,
) -> RBPSchedule:
    """Greedy RBP pebbling: :func:`greedy_rbp_rows` as a schedule.

    Requires ``r >= Δ_in + 1`` (otherwise no RBP pebbling exists at all).
    """
    moves = decode_moves("rbp", greedy_rbp_rows(dag, r, topo_order, variant))
    return RBPSchedule(dag, r, moves, variant=variant, description=_DESCRIPTION)
