"""Gadget DAGs used in the paper's examples and proof constructions.

This module builds, with explicit node layouts:

* the **Figure 1 gadget** of Proposition 4.2 (and its Appendix B variants),
* the **chained gadget** of Proposition 4.7 (linear RBP/PRBP cost gap),
* the **zipper gadget** of Proposition 4.4 ([3, 18]),
* the **pebble collection gadget** of Proposition 4.6 ([18]).

Every builder comes in two flavours: ``*_gadget(...)`` returns the plain
:class:`~repro.core.dag.ComputationalDAG`, while ``*_instance(...)`` returns
a small layout dataclass that additionally exposes the ids of the named nodes
(``u1``, ``w3``, the chain nodes, the source groups, ...).  The structured
strategy generators in :mod:`repro.solvers.structured` consume the layout
objects so that the move lists they emit are guaranteed to reference the same
node numbering as the DAG builder — a single source of truth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from ..core.dag import ComputationalDAG, DAGFamily, Edge

__all__ = [
    "Figure1Instance",
    "figure1_gadget",
    "figure1_layout",
    "figure1_instance",
    "ChainedGadgetInstance",
    "chained_gadget_dag",
    "chained_gadget_layout",
    "chained_gadget_instance",
    "ZipperInstance",
    "zipper_gadget",
    "zipper_layout",
    "zipper_instance",
    "PebbleCollectionInstance",
    "pebble_collection_gadget",
    "pebble_collection_layout",
    "pebble_collection_instance",
]


# --------------------------------------------------------------------------- #
# Figure 1 gadget (Proposition 4.2, Appendix A.1, Appendix B variants)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Figure1Instance:
    """Layout of the Figure 1 DAG.

    With ``include_endpoints=True`` (Proposition 4.2) the DAG contains the
    extra source ``u0`` and sink ``v0`` together with the dashed edges
    ``u0→u1``, ``u0→u2``, ``v1→v0`` and ``v2→v0``; with it False the DAG is
    the 8-node core gadget used by Proposition 4.7.

    The Appendix B variants add either an extra layer ``z1, z2`` between
    ``u0`` and ``u1/u2`` (used to rule out re-computation shortcuts, B.1) or
    an extra node ``w0`` on a second path from ``u1`` to ``w3`` (used to rule
    out sliding-pebble shortcuts, B.2).
    """

    dag: ComputationalDAG
    u0: int
    u1: int
    u2: int
    w1: int
    w2: int
    w3: int
    w4: int
    v1: int
    v2: int
    v0: int
    z1: int = -1
    z2: int = -1
    w0: int = -1
    include_endpoints: bool = True

    @property
    def has_z_layer(self) -> bool:
        """True iff the Appendix B.1 ``z1, z2`` layer is present."""
        return self.z1 >= 0

    @property
    def has_w0(self) -> bool:
        """True iff the Appendix B.2 ``w0`` node is present."""
        return self.w0 >= 0


def figure1_layout(
    include_endpoints: bool = True,
    with_z_layer: bool = False,
    with_w0: bool = False,
) -> Tuple[Figure1Instance, int, Tuple[Edge, ...]]:
    """:func:`figure1_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if with_z_layer and not include_endpoints:
        raise ValueError("the z-layer variant requires the endpoints u0 and v0")
    ids = itertools.count()
    u0 = next(ids) if include_endpoints else -1
    z1 = next(ids) if with_z_layer else -1
    z2 = next(ids) if with_z_layer else -1
    u1, u2 = next(ids), next(ids)
    w0 = next(ids) if with_w0 else -1
    w1, w2, w3, w4, v1, v2 = (next(ids) for _ in range(6))
    v0 = next(ids) if include_endpoints else -1

    edges: List[Edge] = []
    if include_endpoints:
        if with_z_layer:
            edges += [(u0, z1), (u0, z2), (z1, u1), (z2, u1), (z1, u2), (z2, u2)]
        else:
            edges += [(u0, u1), (u0, u2)]
    edges += [(u1, w1), (u1, w2), (u1, w4)]
    if with_w0:
        edges += [(u1, w0), (w0, w3)]
    edges += [(w1, w3), (w2, w3), (w3, w4)]
    edges += [(w4, v1), (w4, v2), (u2, v1), (u2, v2)]
    if include_endpoints:
        edges += [(v1, v0), (v2, v0)]
    inst = Figure1Instance(
        dag=None,  # type: ignore[arg-type]
        u0=u0,
        u1=u1,
        u2=u2,
        w1=w1,
        w2=w2,
        w3=w3,
        w4=w4,
        v1=v1,
        v2=v2,
        v0=v0,
        z1=z1,
        z2=z2,
        w0=w0,
        include_endpoints=include_endpoints,
    )
    return inst, next(ids), tuple(edges)


def figure1_instance(
    include_endpoints: bool = True,
    with_z_layer: bool = False,
    with_w0: bool = False,
) -> Figure1Instance:
    """Build the Figure 1 gadget and return its layout.

    Parameters
    ----------
    include_endpoints:
        Include the source ``u0``, the sink ``v0`` and the dashed edges
        (Proposition 4.2).  Must be True when ``with_z_layer`` is requested.
    with_z_layer:
        Appendix B.1: insert two nodes ``z1, z2`` between ``u0`` and
        ``u1/u2`` so that re-computing ``u1`` requires keeping two extra red
        pebbles, restoring ``OPT_RBP = 3`` in the re-computation variant.
    with_w0:
        Appendix B.2: add a node ``w0`` with edge ``u1→w0→w3`` so that even
        the sliding-pebble variant needs three simultaneous red pebbles on
        the inputs of ``w3``.
    """
    inst, n, edges = figure1_layout(include_endpoints, with_z_layer, with_w0)
    # every node is labelled with the name of its layout field
    roles = ("u0", "z1", "z2", "u1", "u2", "w0", "w1", "w2", "w3", "w4", "v1", "v2", "v0")
    labels = {v: role for role in roles if (v := getattr(inst, role)) >= 0}
    name = "figure1"
    if not include_endpoints:
        name += "-core"
    if with_z_layer:
        name += "+z"
    if with_w0:
        name += "+w0"
    family = DAGFamily.tag(
        "figure1", include_endpoints=include_endpoints, with_z_layer=with_z_layer, with_w0=with_w0
    )
    return replace(inst, dag=ComputationalDAG(n, edges, labels, name, family))


def figure1_gadget(
    include_endpoints: bool = True,
    with_z_layer: bool = False,
    with_w0: bool = False,
) -> ComputationalDAG:
    """The Figure 1 DAG (see :func:`figure1_instance` for the parameters)."""
    return figure1_instance(include_endpoints, with_z_layer, with_w0).dag


# --------------------------------------------------------------------------- #
# Chained gadget (Proposition 4.7)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ChainedGadgetInstance:
    """Layout of the Proposition 4.7 construction.

    ``copies`` copies of the 8-node core of Figure 1 are concatenated by
    merging node ``v1`` of copy *i* with node ``u1`` of copy *i+1* and ``v2``
    of copy *i* with ``u2`` of copy *i+1*; a fresh source ``u0`` feeds
    ``u1, u2`` of the first copy and a fresh sink ``v0`` collects
    ``v1, v2`` of the last copy.

    ``gadget_nodes[i]`` maps the role names ``"u1", "u2", "w1", ..., "v2"``
    of copy ``i`` to node ids (note that ``v1``/``v2`` of copy ``i`` are the
    same ids as ``u1``/``u2`` of copy ``i+1``).
    """

    dag: ComputationalDAG
    copies: int
    u0: int
    v0: int
    gadget_nodes: Tuple[Dict[str, int], ...]


def chained_gadget_layout(copies: int) -> Tuple[ChainedGadgetInstance, int, Tuple[Edge, ...]]:
    """:func:`chained_gadget_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if copies < 1:
        raise ValueError(f"need at least one gadget copy, got {copies}")
    ids = itertools.count()
    u0 = next(ids)
    edges: List[Edge] = []
    per_copy: List[Dict[str, int]] = []
    # entry nodes of the current copy (u1, u2); for the first copy they are fresh
    cur_u1, cur_u2 = next(ids), next(ids)
    edges += [(u0, cur_u1), (u0, cur_u2)]
    for _ in range(copies):
        w1, w2, w3, w4, v1, v2 = (next(ids) for _ in range(6))
        edges += [
            (cur_u1, w1),
            (cur_u1, w2),
            (cur_u1, w4),
            (w1, w3),
            (w2, w3),
            (w3, w4),
            (w4, v1),
            (w4, v2),
            (cur_u2, v1),
            (cur_u2, v2),
        ]
        per_copy.append(
            {"u1": cur_u1, "u2": cur_u2, "w1": w1, "w2": w2, "w3": w3, "w4": w4, "v1": v1, "v2": v2}
        )
        cur_u1, cur_u2 = v1, v2
    v0 = next(ids)
    edges += [(cur_u1, v0), (cur_u2, v0)]
    inst = ChainedGadgetInstance(
        dag=None, copies=copies, u0=u0, v0=v0, gadget_nodes=tuple(per_copy)  # type: ignore[arg-type]
    )
    return inst, next(ids), tuple(edges)


def chained_gadget_instance(copies: int) -> ChainedGadgetInstance:
    """Build the Proposition 4.7 chain with ``copies`` gadget copies (``copies >= 1``)."""
    inst, n, edges = chained_gadget_layout(copies)
    labels = {inst.u0: "u0", inst.v0: "v0"}
    for i, roles in enumerate(inst.gadget_nodes):
        for role, v in roles.items():
            # v1/v2 of copy i are u1/u2 of copy i + 1 and keep copy i's label
            labels.setdefault(v, f"g{i}.{role}")
    family = DAGFamily.tag("chained_gadget", copies=copies)
    return replace(inst, dag=ComputationalDAG(n, edges, labels, f"prop47-chain-{copies}", family))


def chained_gadget_dag(copies: int) -> ComputationalDAG:
    """The Proposition 4.7 chained-gadget DAG with ``copies`` copies."""
    return chained_gadget_instance(copies).dag


# --------------------------------------------------------------------------- #
# Zipper gadget (Proposition 4.4)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ZipperInstance:
    """Layout of the zipper gadget of [3, 18] (Figure 2, left).

    Two groups ``group_a`` and ``group_b`` of ``d`` source nodes each, and a
    chain ``chain[0..length-1]``.  Chain node ``chain[i]`` has incoming edges
    from the previous chain node (if any) and from *all* nodes of one of the
    two groups, alternating: group A for even ``i``, group B for odd ``i``.
    """

    dag: ComputationalDAG
    d: int
    length: int
    group_a: Tuple[int, ...]
    group_b: Tuple[int, ...]
    chain: Tuple[int, ...]

    def group_for(self, i: int) -> Tuple[int, ...]:
        """The source group feeding chain node ``i`` (A for even ``i``, B for odd)."""
        return self.group_a if i % 2 == 0 else self.group_b


def zipper_layout(d: int, length: int) -> Tuple[ZipperInstance, int, Tuple[Edge, ...]]:
    """:func:`zipper_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if d < 1:
        raise ValueError(f"group size d must be >= 1, got {d}")
    if length < 2:
        raise ValueError(f"chain length must be >= 2, got {length}")
    group_a = tuple(range(0, d))
    group_b = tuple(range(d, 2 * d))
    chain = tuple(range(2 * d, 2 * d + length))
    edges: List[Edge] = []
    for i, c in enumerate(chain):
        if i > 0:
            edges.append((chain[i - 1], c))
        group = group_a if i % 2 == 0 else group_b
        for u in group:
            edges.append((u, c))
    inst = ZipperInstance(
        dag=None, d=d, length=length, group_a=group_a, group_b=group_b, chain=chain  # type: ignore[arg-type]
    )
    return inst, 2 * d + length, tuple(edges)


def zipper_instance(d: int, length: int) -> ZipperInstance:
    """Build a zipper gadget with group size ``d`` and chain length ``length``.

    ``length >= 2`` is required so that both source groups are actually used
    (with a single chain node group B would consist of isolated nodes).
    """
    inst, n, edges = zipper_layout(d, length)
    labels = {v: f"a{j}" for j, v in enumerate(inst.group_a)}
    labels.update({v: f"b{j}" for j, v in enumerate(inst.group_b)})
    labels.update({v: f"c{j}" for j, v in enumerate(inst.chain)})
    family = DAGFamily.tag("zipper", d=d, length=length)
    return replace(inst, dag=ComputationalDAG(n, edges, labels, f"zipper-d{d}-l{length}", family))


def zipper_gadget(d: int, length: int) -> ComputationalDAG:
    """The zipper-gadget DAG with group size ``d`` and chain length ``length``."""
    return zipper_instance(d, length).dag


# --------------------------------------------------------------------------- #
# Pebble collection gadget (Proposition 4.6)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PebbleCollectionInstance:
    """Layout of the pebble collection gadget of [18] (Figure 2, right).

    ``d`` source nodes ``sources[0..d-1]`` and a chain ``chain[0..length-1]``;
    chain node ``i`` has incoming edges from the previous chain node (if any)
    and from source ``i mod d``.
    """

    dag: ComputationalDAG
    d: int
    length: int
    sources: Tuple[int, ...]
    chain: Tuple[int, ...]

    def source_for(self, i: int) -> int:
        """The source feeding chain node ``i``."""
        return self.sources[i % self.d]


def pebble_collection_layout(
    d: int, length: int
) -> Tuple[PebbleCollectionInstance, int, Tuple[Edge, ...]]:
    """:func:`pebble_collection_instance`'s layout (with ``dag=None``), node count and edges; builds no DAG."""
    if d < 1:
        raise ValueError(f"number of sources d must be >= 1, got {d}")
    if length < 1:
        raise ValueError(f"chain length must be >= 1, got {length}")
    sources = tuple(range(d))
    chain = tuple(range(d, d + length))
    edges: List[Edge] = []
    for i, c in enumerate(chain):
        if i > 0:
            edges.append((chain[i - 1], c))
        edges.append((sources[i % d], c))
    inst = PebbleCollectionInstance(
        dag=None, d=d, length=length, sources=sources, chain=chain  # type: ignore[arg-type]
    )
    return inst, d + length, tuple(edges)


def pebble_collection_instance(d: int, length: int) -> PebbleCollectionInstance:
    """Build a pebble collection gadget with ``d`` sources and chain length ``length``."""
    inst, n, edges = pebble_collection_layout(d, length)
    labels = {v: f"u{j}" for j, v in enumerate(inst.sources)}
    labels.update({v: f"c{j}" for j, v in enumerate(inst.chain)})
    family = DAGFamily.tag("pebble_collection", d=d, length=length)
    return replace(inst, dag=ComputationalDAG(n, edges, labels, f"collection-d{d}-l{length}", family))


def pebble_collection_gadget(d: int, length: int) -> ComputationalDAG:
    """The pebble-collection-gadget DAG with ``d`` sources and chain length ``length``."""
    return pebble_collection_instance(d, length).dag
