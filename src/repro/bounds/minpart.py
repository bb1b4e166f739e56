"""Minimum S-partitions: exact search on small DAGs and greedy upper bounds.

The Hong–Kung style lower bounds need *lower* bounds on ``MIN_part(S)`` /
``MIN_dom(S)`` / ``MIN_edge(S)`` — for the structured DAG families these come
from the counting arguments in :mod:`repro.bounds.analytic`.  This module
complements them with two generic tools:

* **exact minimisation** on small DAGs (:func:`min_spartition_classes`,
  :func:`min_dominator_partition_classes`, :func:`min_edge_partition_classes`)
  — condition (i) of the definitions forces the prefix unions of any valid
  partition to be predecessor-closed sets (*downsets*), so the minimum number
  of classes is a shortest path in the lattice of downsets, which we search
  with a breadth-first scan and a monotone dominator-size prune.  Downsets
  and classes are int bitmasks, and each class's verdict is computed once
  per search (the same classes recur under many downsets);
* **greedy construction** (:func:`greedy_spartition`, ...) — a valid
  partition built by scanning a topological order and closing the current
  class as soon as the next node would violate a condition.  Greedy results
  are *upper* bounds on the minimum and are mainly used to sandwich the exact
  value in tests and to report achievable partitions in the benchmarks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.dag import ComputationalDAG, Edge
from ..core.exceptions import SolverError
from .dominators import (
    _bitmask,
    _min_vertex_cut_to_targets,
    _successor_masks,
    edge_terminal_set,
    minimum_dominator_size,
    minimum_edge_dominator_size,
    terminal_set,
)
from .partitions import SDominatorPartition, SEdgePartition, SPartition

__all__ = [
    "min_spartition_classes",
    "min_dominator_partition_classes",
    "min_edge_partition_classes",
    "greedy_spartition",
    "greedy_dominator_partition",
    "greedy_edge_partition",
    "EXACT_SEARCH_NODE_LIMIT",
]

#: Exact partition search is refused above this node (or edge) count.
EXACT_SEARCH_NODE_LIMIT = 16


def _min_classes_over_downsets(
    n_items: int,
    closure_preds: Sequence[int],
    class_is_valid: Callable[[int], Tuple[bool, bool]],
    max_items: int,
    item_order: Optional[Sequence[int]] = None,
) -> int:
    """Shortest chain of downsets ``∅ = I_0 ⊂ I_1 ⊂ ... ⊂ I_k = all`` with valid increments.

    Item sets are int bitmasks over ``0 .. n_items-1``.  ``closure_preds[i]``
    is the mask of items that must already be covered before item ``i`` may
    be added (predecessor closure).  ``class_is_valid(W)`` returns a pair
    ``(valid, prunable)`` for a class mask ``W``; ``prunable=True`` asserts
    that no superset of ``W`` can be valid (sound for the monotone
    dominator-size condition, never asserted for the non-monotone terminal
    condition).  A class's verdict depends on the class alone, not on the
    downset it extends, so it is computed once per class mask: the same
    classes recur under many downsets.

    ``item_order`` must list the items in a prerequisite-respecting order
    (prerequisites before dependents).  The class-enumeration DFS walks the
    remaining items in that order, so every prerequisite-closed candidate
    class is reachable by adding items left to right.
    """
    if n_items == 0:
        return 0
    if n_items > max_items:
        raise SolverError(
            f"exact partition search supports at most {max_items} items, got {n_items}"
        )
    order = list(item_order) if item_order is not None else list(range(n_items))
    if sorted(order) != list(range(n_items)):
        raise ValueError("item_order must be a permutation of the items")
    full = (1 << n_items) - 1
    verdicts: Dict[int, Tuple[bool, bool]] = {}
    dist: Dict[int, int] = {0: 0}
    queue = deque([0])
    while queue:
        ideal = queue.popleft()
        d = dist[ideal]
        if ideal == full:
            return d
        remaining = [i for i in order if not ideal >> i & 1]

        found_classes: List[int] = []

        def extend(current: int, start_idx: int) -> None:
            if current:
                verdict = verdicts.get(current)
                if verdict is None:
                    verdict = verdicts[current] = class_is_valid(current)
                valid, prunable = verdict
                if not valid and prunable:
                    return
                if valid:
                    found_classes.append(current)
            covered = ideal | current
            for pos in range(start_idx, len(remaining)):
                item = remaining[pos]
                if not closure_preds[item] & ~covered:
                    extend(current | 1 << item, pos + 1)

        extend(0, 0)
        for cls in found_classes:
            new_ideal = ideal | cls
            if new_ideal not in dist:
                dist[new_ideal] = d + 1
                queue.append(new_ideal)
    raise SolverError("no valid partition exists (this should be impossible for S >= 1)")


def _bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _node_class_checks(
    dag: ComputationalDAG, s: int
) -> Tuple[List[int], Callable[[int], bool], Callable[[int], bool]]:
    """Per-DAG masks and the two class conditions of Definitions 5.1/5.2 on node masks.

    Returns ``(preds, dominated, terminal_ok)``: predecessor masks, and
    predicates telling whether a class mask has a dominator of size at most
    ``s`` and a terminal set of at most ``s`` nodes.
    """
    n, sources, succ = dag.n, _bitmask(dag.sources), _successor_masks(dag)
    preds = [_bitmask(dag.predecessors(v)) for v in dag.nodes()]

    def dominated(cls: int) -> bool:
        return _min_vertex_cut_to_targets(n, sources, succ, cls) <= s

    def terminal_ok(cls: int) -> bool:
        return sum(1 for v in _bits(cls) if not succ[v] & cls) <= s

    return preds, dominated, terminal_ok


def min_dominator_partition_classes(
    dag: ComputationalDAG, s: int, max_nodes: int = EXACT_SEARCH_NODE_LIMIT
) -> int:
    """Exact ``MIN_dom(S)``: the minimum number of classes of any S-dominator partition."""
    preds, dominated, _ = _node_class_checks(dag, s)

    def valid(cls: int) -> Tuple[bool, bool]:
        ok = dominated(cls)
        # dominator size is monotone in the class, so an invalid class can
        # never become valid by adding more nodes -> prunable
        return ok, not ok

    return _min_classes_over_downsets(
        dag.n, preds, valid, max_nodes, item_order=dag.topological_order
    )


def min_spartition_classes(
    dag: ComputationalDAG, s: int, max_nodes: int = EXACT_SEARCH_NODE_LIMIT
) -> int:
    """Exact ``MIN_part(S)``: the minimum number of classes of any S-partition."""
    preds, dominated, terminal_ok = _node_class_checks(dag, s)

    def valid(cls: int) -> Tuple[bool, bool]:
        if not dominated(cls):
            return False, True  # prunable: dominators only grow
        # terminal sets are not monotone, so a terminal violation must not prune
        return terminal_ok(cls), False

    return _min_classes_over_downsets(
        dag.n, preds, valid, max_nodes, item_order=dag.topological_order
    )


def min_edge_partition_classes(
    dag: ComputationalDAG, s: int, max_edges: int = EXACT_SEARCH_NODE_LIMIT
) -> int:
    """Exact ``MIN_edge(S)``: the minimum number of classes of any S-edge partition."""
    n, sources, succ = dag.n, _bitmask(dag.sources), _successor_masks(dag)
    # prerequisite of edge (u, v): every in-edge of u
    prereqs = [_bitmask(dag.edge_id(p, u) for p in dag.predecessors(u)) for u, _ in dag.edges]
    tails = [1 << u for u, _ in dag.edges]
    heads = [1 << v for _, v in dag.edges]

    def valid(cls: int) -> Tuple[bool, bool]:
        start = end = 0
        for e in _bits(cls):
            start |= tails[e]
            end |= heads[e]
        # an edge-dominator dominates Start(E0) (Definition 6.1)
        if _min_vertex_cut_to_targets(n, sources, succ, start) > s:
            return False, True
        # edge-terminal set: heads of E0 with no out-edge in E0 (Definition 6.2)
        return (end & ~start).bit_count() <= s, False

    # order the edge items so that prerequisites (in-edges of the tail) come first
    pos = dag.topological_position()
    edge_order = sorted(range(dag.m), key=lambda e: (pos[dag.edges[e][1]], pos[dag.edges[e][0]]))
    return _min_classes_over_downsets(dag.m, prereqs, valid, max_edges, item_order=edge_order)


# --------------------------------------------------------------------------- #
# greedy constructions (upper bounds on the minima)
# --------------------------------------------------------------------------- #


def greedy_dominator_partition(dag: ComputationalDAG, s: int) -> SDominatorPartition:
    """Greedy S-dominator partition built along a topological order."""
    classes: List[List[int]] = []
    current: List[int] = []
    for v in dag.topological_order:
        candidate = current + [v]
        if minimum_dominator_size(dag, candidate) <= s:
            current = candidate
        else:
            if not current:
                raise SolverError(f"S = {s} is too small: node {v} alone has no dominator of size {s}")
            classes.append(current)
            current = [v]
            if minimum_dominator_size(dag, current) > s:
                raise SolverError(f"S = {s} is too small: node {v} alone has no dominator of size {s}")
    if current:
        classes.append(current)
    partition = SDominatorPartition(dag=dag, s=s, classes=classes)
    partition.verify()
    return partition


def greedy_spartition(dag: ComputationalDAG, s: int) -> SPartition:
    """Greedy S-partition built along a topological order."""
    classes: List[List[int]] = []
    current: List[int] = []

    def feasible(cls: List[int]) -> bool:
        return (
            minimum_dominator_size(dag, cls) <= s
            and len(terminal_set(dag, cls)) <= s
        )

    for v in dag.topological_order:
        candidate = current + [v]
        if feasible(candidate):
            current = candidate
        else:
            if not current:
                raise SolverError(f"S = {s} is too small for a singleton class of node {v}")
            classes.append(current)
            current = [v]
            if not feasible(current):
                raise SolverError(f"S = {s} is too small for a singleton class of node {v}")
    if current:
        classes.append(current)
    partition = SPartition(dag=dag, s=s, classes=classes)
    partition.verify()
    return partition


def greedy_edge_partition(dag: ComputationalDAG, s: int) -> SEdgePartition:
    """Greedy S-edge partition built along a topological order of the edges."""
    # order edges by (topological position of head, then tail)
    pos = dag.topological_position()
    ordered_edges = sorted(dag.edges, key=lambda e: (pos[e[1]], pos[e[0]]))
    classes: List[List[Edge]] = []
    current: List[Edge] = []

    def feasible(cls: List[Edge]) -> bool:
        return (
            minimum_edge_dominator_size(dag, cls) <= s
            and len(edge_terminal_set(dag, cls)) <= s
        )

    for e in ordered_edges:
        candidate = current + [e]
        if feasible(candidate):
            current = candidate
        else:
            if not current:
                raise SolverError(f"S = {s} is too small for a singleton edge class of {e}")
            classes.append(current)
            current = [e]
            if not feasible(current):
                raise SolverError(f"S = {s} is too small for a singleton edge class of {e}")
    if current:
        classes.append(current)
    partition = SEdgePartition(dag=dag, s=s, classes=classes)
    partition.verify()
    return partition
