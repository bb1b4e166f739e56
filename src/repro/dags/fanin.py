"""The Lemma 5.4 fan-in construction (Figure 3).

This DAG separates the classic S-partition bound from the true PRBP cost:
with 7 source nodes ``u_1 .. u_7``, 7 disjoint groups ``H_1 .. H_7`` of
``Θ(n)`` nodes each and one sink ``v``, where ``u_i`` feeds every node of
``H_i`` and every node of every group feeds ``v``, PRBP can pebble the whole
DAG with ``r = 3`` at the trivial cost of 8 (load the 7 sources once each,
save the sink), while every ``S``-partition with ``S = 2r = 6`` needs
``Θ(n)`` classes, so the Hong–Kung style bound would wrongly claim an
``Ω(n)`` cost.

The number of groups defaults to 7 as in the paper (chosen so that no
dominator of size ``2r = 6`` covers all the sources) but is configurable so
the same construction can be studied for other cache sizes: the separation
needs ``num_groups >= 2r + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..core.dag import ComputationalDAG, DAGFamily, Edge

__all__ = ["FanInGroupsInstance", "fanin_groups_layout", "fanin_groups_instance", "fanin_groups_dag"]


@dataclass(frozen=True)
class FanInGroupsInstance:
    """Layout of the Figure 3 construction.

    ``sources[i]`` is the node ``u_{i+1}``; ``groups[i]`` holds the node ids
    of ``H_{i+1}``; ``sink`` is the node ``v``.
    """

    dag: ComputationalDAG
    num_groups: int
    group_size: int
    sources: Tuple[int, ...]
    groups: Tuple[Tuple[int, ...], ...]
    sink: int


def fanin_groups_layout(
    num_groups: int = 7, group_size: int = 10
) -> Tuple[FanInGroupsInstance, int, Tuple[Edge, ...]]:
    """:func:`fanin_groups_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if num_groups < 1:
        raise ValueError(f"num_groups must be >= 1, got {num_groups}")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    sources = tuple(range(num_groups))
    groups = tuple(
        tuple(range(num_groups + i * group_size, num_groups + (i + 1) * group_size))
        for i in range(num_groups)
    )
    sink = num_groups + num_groups * group_size
    edges: List[Edge] = []
    for i in range(num_groups):
        for w in groups[i]:
            edges.append((sources[i], w))
            edges.append((w, sink))
    inst = FanInGroupsInstance(
        dag=None,  # type: ignore[arg-type]
        num_groups=num_groups,
        group_size=group_size,
        sources=sources,
        groups=groups,
        sink=sink,
    )
    return inst, sink + 1, tuple(edges)


def fanin_groups_instance(num_groups: int = 7, group_size: int = 10) -> FanInGroupsInstance:
    """Build the Lemma 5.4 DAG with ``num_groups`` groups of ``group_size`` nodes each."""
    inst, n, edges = fanin_groups_layout(num_groups, group_size)
    labels = {u: f"u{i + 1}" for i, u in enumerate(inst.sources)}
    labels.update({w: f"H{i + 1},{j}" for i, ids in enumerate(inst.groups) for j, w in enumerate(ids)})
    labels[inst.sink] = "v"
    family = DAGFamily.tag("fanin_groups", num_groups=num_groups, group_size=group_size)
    return replace(inst, dag=ComputationalDAG(n, edges, labels, f"fanin-{num_groups}x{group_size}", family))


def fanin_groups_dag(num_groups: int = 7, group_size: int = 10) -> ComputationalDAG:
    """The Lemma 5.4 fan-in DAG (Figure 3)."""
    return fanin_groups_instance(num_groups, group_size).dag
