"""Greedy pebbling heuristics: topological processing with Belady-style eviction.

These solvers produce *valid* (not necessarily optimal) schedules for DAGs of
any size and are used as upper-bound baselines in the benchmarks and as
work-horses in the examples:

* :func:`topological_prbp_schedule` — the strategy sketched in Section 3 of
  the paper: process the edges in a topological order of their heads,
  loading inputs and saving partial values on demand.  It produces a valid
  PRBP pebbling for every DAG as soon as ``r >= 2``.
* :func:`greedy_rbp_schedule` — the classic RBP analogue: compute the nodes
  in topological order, gathering all inputs in fast memory; valid whenever
  ``r >= Δ_in + 1``.

Both use the same eviction machinery: when a slot is needed, prefer pebbles
that can be dropped for free (already saved, or never needed again), and
otherwise save-and-drop the pebble whose next use is furthest in the future
(the offline Belady rule applied to the fixed processing order).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..core.dag import ComputationalDAG
from ..core.exceptions import SolverError
from ..core.moves import MoveKind, PRBPMove, RBPMove
from ..core.pebbles import PRBPState
from ..core.prbp import PRBPGame
from ..core.rbp import RBPGame
from ..core.strategy import PRBPSchedule, RBPSchedule
from ..core.variants import ONE_SHOT, GameVariant

__all__ = ["topological_prbp_schedule", "greedy_rbp_schedule"]


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


def topological_prbp_schedule(
    dag: ComputationalDAG,
    r: int,
    topo_order: Optional[Sequence[int]] = None,
    variant: GameVariant = ONE_SHOT,
) -> PRBPSchedule:
    """Greedy PRBP pebbling: aggregate each node's in-edges in topological order.

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
        Only used for cost bookkeeping; must be a one-shot variant.
    """
    if r < 2 and dag.m > 0:
        raise SolverError(f"the topological PRBP strategy needs r >= 2, got r = {r}")
    order = list(topo_order) if topo_order is not None else list(dag.topological_order)
    if len(order) != dag.n or set(order) != set(range(dag.n)):
        raise ValueError("topo_order must be a permutation of all nodes")
    pos_of = {v: i for i, v in enumerate(order)}
    for u, v in dag.edges:
        if pos_of[u] >= pos_of[v]:
            raise ValueError("topo_order is not a topological order of the DAG")

    # Edge processing sequence: all in-edges of each node, nodes in order.
    edge_sequence: List[Tuple[int, int]] = []
    for v in order:
        for u in sorted(dag.predecessors(v), key=lambda u: pos_of[u]):
            edge_sequence.append((u, v))
    participants = [(u, v) for (u, v) in edge_sequence]
    uses = _next_use_table(participants, dag.n)

    game = PRBPGame(dag, r, variant=variant)
    # the nodes holding a red pebble: loads and computes add one, only the
    # eviction below removes one (the final sink saves keep it red)
    red: Set[int] = set()

    def make_room(pos: int, protected: Set[int]) -> None:
        """Free one fast-memory slot, never touching ``protected`` nodes."""
        if game.red_count() < r:
            return
        # candidates: every red node outside the protected set, ascending
        # (the order ``max`` breaks ties in)
        candidates = [v for v in sorted(red) if v not in protected]
        if not candidates:
            raise SolverError(
                f"cannot free a fast-memory slot at position {pos}: all {r} red pebbles are in use"
            )
        def freely_deletable(v: int) -> bool:
            st = game.node_state(v)
            if st is PRBPState.BLUE_LIGHT_RED:
                return True
            # An unsaved dark red sink must never be dropped (it still has to
            # reach slow memory), so it only qualifies after a save.
            return (
                st is PRBPState.DARK_RED
                and not dag.is_sink(v)
                and game.all_out_edges_marked(v)
                and game.is_fully_computed(v)
            )

        free_candidates = [v for v in candidates if freely_deletable(v)]
        pool = free_candidates if free_candidates else candidates
        victim = max(pool, key=lambda v: _next_use_after(uses[v], pos))
        if game.node_state(victim) is PRBPState.DARK_RED and not freely_deletable(victim):
            game.apply(PRBPMove(MoveKind.SAVE, node=victim))
        game.apply(PRBPMove(MoveKind.DELETE, node=victim))
        red.discard(victim)

    for pos, (u, v) in enumerate(edge_sequence):
        # 1. make sure u is in fast memory
        if not game.node_state(u).has_red:
            protected = {v} if game.node_state(v).has_red else set()
            make_room(pos, protected)
            game.apply(PRBPMove(MoveKind.LOAD, node=u))
            red.add(u)
        # 2. make sure v can receive the dark red pebble
        stv = game.node_state(v)
        if stv is PRBPState.BLUE:
            make_room(pos, {u})
            game.apply(PRBPMove(MoveKind.LOAD, node=v))
        elif stv is PRBPState.NONE:
            make_room(pos, {u})
        # 3. aggregate
        game.apply(PRBPMove(MoveKind.COMPUTE, edge=(u, v)))
        red.add(v)

    for v in dag.sinks:
        if game.node_state(v) is PRBPState.DARK_RED:
            game.apply(PRBPMove(MoveKind.SAVE, node=v))
    game.assert_terminal()
    assert game.history is not None
    return PRBPSchedule(
        dag,
        r,
        list(game.history),
        variant=variant,
        description="topological greedy (Belady eviction)",
    )


def greedy_rbp_schedule(
    dag: ComputationalDAG,
    r: int,
    topo_order: Optional[Sequence[int]] = None,
    variant: GameVariant = ONE_SHOT,
) -> RBPSchedule:
    """Greedy RBP pebbling: compute nodes in topological order with Belady eviction.

    Requires ``r >= Δ_in + 1`` (otherwise no RBP pebbling exists at all).
    """
    if r < dag.max_in_degree + 1:
        raise SolverError(
            f"no valid RBP pebbling exists: r = {r} < max in-degree + 1 = {dag.max_in_degree + 1}"
        )
    order = list(topo_order) if topo_order is not None else list(dag.topological_order)
    if len(order) != dag.n or set(order) != set(range(dag.n)):
        raise ValueError("topo_order must be a permutation of all nodes")
    pos_of = {v: i for i, v in enumerate(order)}
    for u, v in dag.edges:
        if pos_of[u] >= pos_of[v]:
            raise ValueError("topo_order is not a topological order of the DAG")

    steps: List[Tuple[int, ...]] = []
    for v in order:
        if not dag.is_source(v):
            steps.append(tuple(dag.predecessors(v)) + (v,))
    uses = _next_use_table(steps, dag.n)

    game = RBPGame(dag, r, variant=variant)

    def make_room(pos: int, protected: Set[int]) -> None:
        if game.red_count() < r:
            return
        candidates = [v for v in game.red if v not in protected]
        if not candidates:
            raise SolverError(
                f"cannot free a fast-memory slot at step {pos}: all {r} red pebbles are protected"
            )
        free_candidates = [v for v in candidates if v in game.blue]
        pool = free_candidates if free_candidates else candidates
        victim = max(pool, key=lambda v: _next_use_after(uses[v], pos))
        if victim not in game.blue:
            game.apply(RBPMove(MoveKind.SAVE, victim))
        game.apply(RBPMove(MoveKind.DELETE, victim))

    step_index = 0
    for v in order:
        if dag.is_source(v):
            continue
        preds = set(dag.predecessors(v))
        for u in sorted(preds, key=lambda u: pos_of[u]):
            if u not in game.red:
                make_room(step_index, preds | {v})
                game.apply(RBPMove(MoveKind.LOAD, u))
        make_room(step_index, preds | {v})
        game.apply(RBPMove(MoveKind.COMPUTE, v))
        if dag.is_sink(v):
            game.apply(RBPMove(MoveKind.SAVE, v))
        step_index += 1

    game.assert_terminal()
    assert game.history is not None
    return RBPSchedule(
        dag,
        r,
        list(game.history),
        variant=variant,
        description="topological greedy (Belady eviction)",
    )
