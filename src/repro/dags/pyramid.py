"""The pyramid gadget (mentioned with Proposition 4.6, originally from [8, 19]).

The pyramid of height ``h`` has ``h + 1`` levels: the bottom level holds
``h + 1`` source nodes and each level above is one node narrower, down to a
single apex (the sink).  Node ``j`` of level ``t`` (counting levels from the
bottom, ``t = 0`` being the sources) has in-neighbours ``j`` and ``j + 1`` of
level ``t - 1``.

In RBP the pyramid is the classic gadget forcing a strategy to gather many
red pebbles: pebbling the apex of a height-``h`` pyramid without I/O beyond
the trivial cost requires ``h + 1`` red pebbles.  The paper notes that its
role in PRBP constructions is played by the more robust pebble collection
gadget, but the pyramid remains useful as a test DAG and for comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..core.dag import ComputationalDAG, DAGFamily, Edge

__all__ = ["PyramidInstance", "pyramid_layout", "pyramid_instance", "pyramid_dag"]


@dataclass(frozen=True)
class PyramidInstance:
    """Layout of the pyramid of height ``h``: ``levels[t]`` are the ids of level ``t`` (bottom = 0)."""

    dag: ComputationalDAG
    height: int
    levels: Tuple[Tuple[int, ...], ...]

    @property
    def apex(self) -> int:
        """The single sink at the top of the pyramid."""
        return self.levels[self.height][0]

    @property
    def base(self) -> Tuple[int, ...]:
        """The ``height + 1`` source nodes at the bottom."""
        return self.levels[0]


def pyramid_layout(height: int) -> Tuple[PyramidInstance, int, Tuple[Edge, ...]]:
    """:func:`pyramid_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    levels: List[Tuple[int, ...]] = []
    next_id = 0
    for t in range(height + 1):
        width = height + 1 - t
        levels.append(tuple(range(next_id, next_id + width)))
        next_id += width
    edges: List[Edge] = []
    for t in range(1, height + 1):
        for j, v in enumerate(levels[t]):
            edges.append((levels[t - 1][j], v))
            edges.append((levels[t - 1][j + 1], v))
    inst = PyramidInstance(dag=None, height=height, levels=tuple(levels))  # type: ignore[arg-type]
    return inst, next_id, tuple(edges)


def pyramid_instance(height: int) -> PyramidInstance:
    """Build a pyramid of height ``height`` (``height >= 1``)."""
    inst, n, edges = pyramid_layout(height)
    labels = {v: f"P{t},{j}" for t, ids in enumerate(inst.levels) for j, v in enumerate(ids)}
    family = DAGFamily.tag("pyramid", height=height)
    return replace(inst, dag=ComputationalDAG(n, edges, labels, f"pyramid-h{height}", family))


def pyramid_dag(height: int) -> ComputationalDAG:
    """The pyramid DAG of height ``height``."""
    return pyramid_instance(height).dag
