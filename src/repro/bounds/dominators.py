"""Dominator and terminal sets (Definitions 5.1, 5.2, 6.1, 6.2).

These are the building blocks of every partition-based lower bound in the
paper:

* a **dominator** for a node set ``V0`` is a node set ``D`` hit by every
  directed path from a source into ``V0`` (Definition 5.1);
* the **terminal set** of ``V0`` contains the nodes of ``V0`` with no
  out-neighbour inside ``V0`` (Definition 5.2);
* an **edge-dominator** for an edge set ``E0`` is a node set hit by every
  source path that contains an edge of ``E0`` — equivalently a dominator for
  the tails ``Start(E0)`` (Definition 6.1);
* the **edge-terminal set** of ``E0`` contains the nodes with an in-edge in
  ``E0`` but no out-edge in ``E0`` (Definition 6.2).

Besides the predicate checks used by the partition verifiers, this module
computes the *minimum* dominator size exactly via a unit-vertex-capacity
max-flow (Menger's theorem), which is what the exact ``MIN_part`` /
``MIN_dom`` / ``MIN_edge`` searches in :mod:`repro.bounds.minpart` need.
The flow is a plain augmenting-path routine over node sets held as int
bitmasks (:func:`_min_vertex_cut_to_targets`); it needs nothing beyond the
standard library, and the exact searches call it on masks they build once
per DAG.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Set

from ..core.dag import ComputationalDAG, Edge

__all__ = [
    "is_dominator",
    "terminal_set",
    "edge_start_set",
    "is_edge_dominator",
    "edge_terminal_set",
    "minimum_dominator_size",
    "minimum_edge_dominator_size",
]


def is_dominator(dag: ComputationalDAG, dominator: Iterable[int], targets: Iterable[int]) -> bool:
    """True iff every directed path from a source to a node of ``targets`` meets ``dominator``.

    A target that is itself in the dominator is trivially covered; a *source*
    target outside the dominator is **not** covered (the empty path from it to
    itself avoids the dominator), matching Definition 5.1.
    """
    dom = set(dominator)
    target_set = set(targets)
    if not target_set - dom:
        return True
    # BFS from the sources through G - dom; if we can reach a target the
    # corresponding path avoids the dominator.
    reachable: Set[int] = set()
    stack = [s for s in dag.sources if s not in dom]
    while stack:
        v = stack.pop()
        if v in reachable:
            continue
        reachable.add(v)
        if v in target_set:
            return False
        for w in dag.successors(v):
            if w not in dom and w not in reachable:
                stack.append(w)
    return True


def terminal_set(dag: ComputationalDAG, nodes: Iterable[int]) -> FrozenSet[int]:
    """The terminal set of ``nodes``: members with no out-neighbour inside ``nodes``."""
    node_set = set(nodes)
    return frozenset(
        v for v in node_set if not any(w in node_set for w in dag.successors(v))
    )


def edge_start_set(edges: Iterable[Edge]) -> FrozenSet[int]:
    """``Start(E0)``: the tails of the edges in ``E0``."""
    return frozenset(u for u, _ in edges)


def is_edge_dominator(
    dag: ComputationalDAG, dominator: Iterable[int], edges: Iterable[Edge]
) -> bool:
    """True iff ``dominator`` is an edge-dominator for ``edges`` (Definition 6.1).

    Uses the equivalence noted in the paper: ``D`` edge-dominates ``E0`` iff
    ``D`` dominates ``Start(E0)``.
    """
    return is_dominator(dag, dominator, edge_start_set(edges))


def edge_terminal_set(dag: ComputationalDAG, edges: Iterable[Edge]) -> FrozenSet[int]:
    """The edge-terminal set of ``edges`` (Definition 6.2)."""
    edge_set = set(edges)
    heads = {v for _, v in edge_set}
    return frozenset(
        v for v in heads if not any((v, w) in edge_set for w in dag.successors(v))
    )


def _bitmask(indices: Iterable[int]) -> int:
    """The int bitmask with bit ``i`` set for every index ``i`` in ``indices``."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _successor_masks(dag: ComputationalDAG) -> List[int]:
    """``masks[v]``: the out-neighbours of ``v`` as a bitmask."""
    return [_bitmask(dag.successors(v)) for v in dag.nodes()]


def _min_vertex_cut_to_targets(n: int, sources: int, succ: Sequence[int], targets: int) -> int:
    """Minimum number of nodes whose removal cuts every ``sources`` → ``targets`` path.

    Node sets are bitmasks over ``0 .. n-1``; ``succ[v]`` holds the
    out-neighbours of ``v``.  Nodes of ``targets`` (and sources) may
    themselves be part of the cut.  Computed by Menger's theorem as the
    maximum number of node-disjoint source → target paths: every node ``v``
    is split into ``v_in`` (index ``v``) → ``v_out`` (index ``n + v``), a
    super source ``2n`` feeds every source's ``v_in`` and every target's
    ``v_out`` feeds a super sink ``2n + 1``.  Each split node passes at most
    one unit, so every arc of this graph carries at most one unit as well,
    and unit capacities on all arcs give the same maximum flow.  The
    residual graph is one successor bitmask per split node; each
    augmenting path found by graph search adds one unit, so at most
    ``popcount(targets)`` augmentations run.
    """
    limit = min(targets.bit_count(), sources.bit_count())
    if not limit:
        return 0
    source, sink = 2 * n, 2 * n + 1
    sink_bit = 1 << sink
    residual = [1 << (n + v) for v in range(n)]
    residual += [succ[v] | (sink_bit if targets >> v & 1 else 0) for v in range(n)]
    residual += [sources, 0]
    parent = [0] * (2 * n + 2)
    flow = 0
    while flow < limit:
        seen = 1 << source
        stack = [source]
        while stack:
            x = stack.pop()
            fresh = residual[x] & ~seen
            if fresh & sink_bit:
                parent[sink] = x
                break
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                y = low.bit_length() - 1
                fresh ^= low
                parent[y] = x
                stack.append(y)
        else:
            break  # no augmenting path left
        y = sink
        while y != source:
            x = parent[y]
            residual[x] &= ~(1 << y)
            residual[y] |= 1 << x
            y = x
        flow += 1
    return flow


def minimum_dominator_size(dag: ComputationalDAG, targets: Iterable[int]) -> int:
    """Size of a minimum dominator for ``targets`` (exact, via max-flow).

    Every target must lie on some path from a source (always true in a DAG
    without isolated nodes, because following in-edges from any node reaches
    a source), so the minimum is finite and at most ``len(targets)``.
    """
    return _min_vertex_cut_to_targets(
        dag.n, _bitmask(dag.sources), _successor_masks(dag), _bitmask(targets)
    )


def minimum_edge_dominator_size(dag: ComputationalDAG, edges: Iterable[Edge]) -> int:
    """Size of a minimum edge-dominator for ``edges`` (exact, via max-flow)."""
    return minimum_dominator_size(dag, edge_start_set(edges))
