"""Rooted in-trees: binary and k-ary reduction trees (Proposition 4.5, Appendix A.2).

A *k-ary reduction tree of depth d* has ``k**d`` leaves (the sources) and all
edges pointing towards the single root (the sink); every internal node has
exactly ``k`` distinct in-neighbours.  These trees model the aggregation of
``k**d`` values by an associative operator and are the DAG family where the
paper's closed-form optimal costs are known exactly:

* RBP with ``r = k + 1``:   ``OPT_RBP  = k**d + 2*k**(d-1) - 1``
* PRBP with ``r = k + 1``:  ``OPT_PRBP = k**d + 2*k**(d-k) - 1``  (for ``d >= k``)

(Appendix A.2; the binary case ``k = 2`` is Proposition 4.5.)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..core.dag import ComputationalDAG, DAGFamily, Edge

__all__ = [
    "TreeInstance",
    "kary_tree_layout",
    "kary_tree_instance",
    "kary_tree_dag",
    "binary_tree_instance",
    "binary_tree_dag",
    "optimal_rbp_tree_cost",
    "optimal_prbp_tree_cost",
]


@dataclass(frozen=True)
class TreeInstance:
    """Layout of a k-ary reduction tree of depth ``d``.

    ``levels[j]`` holds the node ids of depth ``j`` from the root: the root
    is ``levels[0][0]`` and the leaves are ``levels[d]``.  Children (i.e.
    in-neighbours) of node ``levels[j][i]`` are
    ``levels[j+1][k*i], ..., levels[j+1][k*i + k - 1]``.
    """

    dag: ComputationalDAG
    k: int
    depth: int
    levels: Tuple[Tuple[int, ...], ...]

    @property
    def root(self) -> int:
        """The single sink of the tree."""
        return self.levels[0][0]

    @property
    def leaves(self) -> Tuple[int, ...]:
        """The ``k**depth`` source nodes."""
        return self.levels[self.depth]

    def children(self, level: int, index: int) -> Tuple[int, ...]:
        """In-neighbours of the ``index``-th node of ``level`` (ordered left to right)."""
        lo = self.k * index
        return self.levels[level + 1][lo : lo + self.k]


def kary_tree_layout(k: int, depth: int) -> Tuple[TreeInstance, int, Tuple[Edge, ...]]:
    """:func:`kary_tree_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if k < 2:
        raise ValueError(f"arity k must be >= 2, got {k}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    levels: List[Tuple[int, ...]] = []
    next_id = 0
    for level in range(depth + 1):
        levels.append(tuple(range(next_id, next_id + k**level)))
        next_id += k**level
    edges: List[Edge] = []
    for level in range(depth):
        for idx, parent in enumerate(levels[level]):
            for child in levels[level + 1][k * idx : k * idx + k]:
                edges.append((child, parent))
    inst = TreeInstance(dag=None, k=k, depth=depth, levels=tuple(levels))  # type: ignore[arg-type]
    return inst, next_id, tuple(edges)


def kary_tree_instance(k: int, depth: int) -> TreeInstance:
    """Build a k-ary reduction tree of depth ``depth`` (``k >= 2``, ``depth >= 1``)."""
    inst, n, edges = kary_tree_layout(k, depth)
    labels = {v: f"t{level},{idx}" for level, ids in enumerate(inst.levels) for idx, v in enumerate(ids)}
    family = DAGFamily.tag("kary_tree", k=k, depth=depth)
    return replace(inst, dag=ComputationalDAG(n, edges, labels, f"{k}ary-tree-d{depth}", family))


def kary_tree_dag(k: int, depth: int) -> ComputationalDAG:
    """The k-ary reduction tree DAG of depth ``depth``."""
    return kary_tree_instance(k, depth).dag


def binary_tree_instance(depth: int) -> TreeInstance:
    """Binary reduction tree of depth ``depth`` (the Proposition 4.5 family)."""
    return kary_tree_instance(2, depth)


def binary_tree_dag(depth: int) -> ComputationalDAG:
    """The binary reduction tree DAG of depth ``depth``."""
    return binary_tree_instance(depth).dag


def optimal_rbp_tree_cost(k: int, depth: int) -> int:
    """Closed-form ``OPT_RBP`` for the k-ary tree at ``r = k + 1`` (Appendix A.2).

    The trivial cost is ``k**depth + 1`` (load every leaf, save the root);
    every internal node above the bottom two levels forces ``2*(k-1)``
    additional I/O steps.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    trivial = k**depth + 1
    nontrivial = 2 * (k - 1) * sum(k**i for i in range(depth - 1))
    return trivial + nontrivial


def optimal_prbp_tree_cost(k: int, depth: int) -> int:
    """Closed-form ``OPT_PRBP`` for the k-ary tree at ``r = k + 1`` (Appendix A.2).

    Partial computations make the bottom ``k + 1`` levels free; every node
    above them still costs ``2*(k-1)`` I/O steps.  Requires ``depth >= k``;
    for shallower trees PRBP only pays the trivial cost.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    trivial = k**depth + 1
    if depth < k:
        return trivial
    nontrivial = 2 * (k - 1) * sum(k**i for i in range(depth - k))
    return trivial + nontrivial
