"""Structured pebbling strategies: the explicit constructions analysed in the paper.

Every function here emits the ``(op, node, arg)`` rows of an explicit move
sequence for a specific DAG family (with the row helpers ``_load``,
``_save``, ``_dele``, ``_comp`` and ``_compute`` below) and returns them as
a schedule without replaying them.  :func:`repro.api.solve` replays every
schedule it returns exactly once and raises on an illegal one; direct
callers replay with the schedule's ``validate``, ``cost`` or ``stats``
method.  The families and the costs they achieve:

=========================================  =============================================
strategy                                    paper reference / achieved cost
=========================================  =============================================
:func:`figure1_prbp_schedule`               Prop. 4.2 / App. A.1 — cost 2 at r = 4
:func:`figure1_rbp_schedule`                Prop. 4.2 / App. A.1 — cost 3 at r = 4
:func:`chained_gadget_prbp_schedule`        Prop. 4.7 — cost 2 at r = 4 for any number of copies
:func:`matvec_prbp_schedule`                Prop. 4.3 — cost m² + 2m at r = m + 3
:func:`zipper_prbp_schedule`                Prop. 4.4 — ≈ 2 I/O per chain node at r = d + 2
:func:`zipper_rbp_schedule`                 Prop. 4.4 — d I/O per chain node at r = d + 2
:func:`tree_rbp_schedule`                   Prop. 4.5 / App. A.2 — k^d + 2k^{d-1} − 1 at r = k + 1
:func:`tree_prbp_schedule`                  Prop. 4.5 / App. A.2 — k^d + 2k^{d-k} − 1 at r = k + 1
:func:`collection_full_rbp_schedule`        Prop. 4.6 — trivial cost with d + 2 pebbles
:func:`collection_full_prbp_schedule`       Prop. 4.6 — trivial cost with d + 2 pebbles
:func:`fanin_groups_prbp_schedule`          Lemma 5.4 — trivial cost at r = 3
:func:`fft_blocked_rbp_schedule`            Thm. 6.9 — O(m·log m / log r) upper bound
:func:`matmul_tiled_prbp_schedule`          Thm. 6.10 — O(m1·m2·m3 / √r) upper bound
:func:`attention_flash_prbp_schedule`       Thm. 6.11 — O(m²·d²/r) non-trivial I/O in the large-cache regime
=========================================  =============================================
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..core.conversion import convert_rbp_to_prbp
from ..core.exceptions import SolverError
from ..core.moves import OP_COMPUTE, OP_DELETE, OP_LOAD, OP_SAVE, MoveRow
from ..core.strategy import PRBPSchedule, RBPSchedule
from ..dags.attention import AttentionInstance, attention_instance
from ..dags.fanin import FanInGroupsInstance, fanin_groups_instance
from ..dags.fft import FFTInstance, fft_instance
from ..dags.gadgets import (
    ChainedGadgetInstance,
    Figure1Instance,
    PebbleCollectionInstance,
    ZipperInstance,
    chained_gadget_instance,
    figure1_instance,
    pebble_collection_instance,
    zipper_instance,
)
from ..dags.linalg import MatMulInstance, MatVecInstance, matmul_instance, matvec_instance
from ..dags.trees import TreeInstance, kary_tree_instance

__all__ = [
    "FIGURE1_MIN_R",
    "CHAINED_GADGET_MIN_R",
    "FANIN_MIN_R",
    "FFT_MIN_R",
    "MATMUL_MIN_R",
    "matvec_min_r",
    "zipper_min_r",
    "tree_min_r",
    "collection_min_r",
    "attention_min_r",
    "figure1_prbp_schedule",
    "figure1_rbp_schedule",
    "chained_gadget_prbp_schedule",
    "matvec_prbp_schedule",
    "zipper_prbp_schedule",
    "zipper_rbp_schedule",
    "tree_rbp_schedule",
    "tree_prbp_schedule",
    "collection_full_rbp_schedule",
    "collection_full_prbp_schedule",
    "fanin_groups_prbp_schedule",
    "fft_blocked_rbp_schedule",
    "fft_blocked_prbp_schedule",
    "matmul_tiled_prbp_schedule",
    "attention_flash_prbp_schedule",
]


# Row helpers.  Load, save and delete rows are the same in both games; a
# compute row targets a node in RBP and an edge in PRBP.


def _load(v: int) -> MoveRow:
    return (OP_LOAD, v, -1)


def _save(v: int) -> MoveRow:
    return (OP_SAVE, v, -1)


def _dele(v: int) -> MoveRow:
    return (OP_DELETE, v, -1)


def _comp(u: int, v: int) -> MoveRow:
    """PRBP partial compute along the edge ``(u, v)``."""
    return (OP_COMPUTE, u, v)


def _compute(v: int) -> MoveRow:
    """RBP compute of node ``v``."""
    return (OP_COMPUTE, v, -1)


def _resolve_capacity(r: Optional[int], minimum: int, strategy: str) -> int:
    """Uniform capacity policy shared by every structured strategy.

    ``r=None`` resolves to the family's minimum feasible capacity; an explicit
    ``r`` below that minimum raises :class:`SolverError` so a caller can never
    obtain a schedule whose cost silently belongs to a different cache size.
    """
    if r is None:
        return minimum
    if r < minimum:
        raise SolverError(f"the {strategy} needs r >= {minimum}, got r = {r}")
    return r


# Minimum feasible capacities of the structured strategies — the single source
# of truth shared with the solver adapters in :mod:`repro.api.adapters`.
FIGURE1_MIN_R = 4
CHAINED_GADGET_MIN_R = 4
FANIN_MIN_R = 3
FFT_MIN_R = 4
MATMUL_MIN_R = 4


def matvec_min_r(m: int) -> int:
    """Minimum capacity of the Proposition 4.3 strategy: ``m + 3``."""
    return m + 3


def zipper_min_r(d: int) -> int:
    """Minimum capacity of both zipper strategies: ``d + 2``."""
    return d + 2


def tree_min_r(k: int) -> int:
    """Minimum capacity of both tree strategies: ``k + 1``."""
    return k + 1


def collection_min_r(d: int) -> int:
    """Minimum capacity of both collection strategies: ``d + 2``."""
    return d + 2


def attention_min_r(d: int) -> int:
    """Minimum capacity of the flash-style strategy: ``2d + 3`` (one-row block)."""
    return 2 * d + 3


# --------------------------------------------------------------------------- #
# Figure 1 (Proposition 4.2 / Appendix A.1)
# --------------------------------------------------------------------------- #


def figure1_prbp_schedule(inst: Optional[Figure1Instance] = None, r: Optional[int] = None) -> PRBPSchedule:
    """The Appendix A.1 PRBP strategy for the Figure 1 DAG: 2 I/O steps at ``r = 4``."""
    r = _resolve_capacity(r, FIGURE1_MIN_R, "Appendix A.1 PRBP strategy")
    if inst is None:
        inst = figure1_instance(include_endpoints=True)
    if not inst.include_endpoints or inst.has_z_layer or inst.has_w0:
        raise ValueError("the A.1 strategy targets the plain Figure 1 DAG with endpoints")
    g = inst
    moves = [
        _load(g.u0),
        _comp(g.u0, g.u1),
        _comp(g.u0, g.u2),
        _dele(g.u0),
        _comp(g.u1, g.w1),
        _comp(g.w1, g.w3),
        _dele(g.w1),
        _comp(g.u1, g.w2),
        _comp(g.w2, g.w3),
        _dele(g.w2),
        _comp(g.u1, g.w4),
        _comp(g.w3, g.w4),
        _dele(g.u1),
        _dele(g.w3),
        _comp(g.w4, g.v1),
        _comp(g.w4, g.v2),
        _comp(g.u2, g.v1),
        _comp(g.u2, g.v2),
        _dele(g.w4),
        _dele(g.u2),
        _comp(g.v1, g.v0),
        _comp(g.v2, g.v0),
        _save(g.v0),
    ]
    return PRBPSchedule.from_rows(g.dag, r, moves, description="Appendix A.1 PRBP strategy")


def figure1_rbp_schedule(inst: Optional[Figure1Instance] = None, r: Optional[int] = None) -> RBPSchedule:
    """The Appendix A.1 RBP strategy for the Figure 1 DAG: 3 I/O steps at ``r = 4``."""
    r = _resolve_capacity(r, FIGURE1_MIN_R, "Appendix A.1 RBP strategy")
    if inst is None:
        inst = figure1_instance(include_endpoints=True)
    if not inst.include_endpoints or inst.has_z_layer or inst.has_w0:
        raise ValueError("the A.1 strategy targets the plain Figure 1 DAG with endpoints")
    g = inst
    moves = [
        _load(g.u0),
        _compute(g.u1),
        _dele(g.u0),
        _compute(g.w1),
        _compute(g.w2),
        _compute(g.w3),
        _dele(g.w1),
        _dele(g.w2),
        _compute(g.w4),
        _dele(g.w3),
        _dele(g.u1),
        _load(g.u0),
        _compute(g.u2),
        _dele(g.u0),
        _compute(g.v1),
        _compute(g.v2),
        _dele(g.w4),
        _dele(g.u2),
        _compute(g.v0),
        _save(g.v0),
    ]
    return RBPSchedule.from_rows(g.dag, r, moves, description="Appendix A.1 RBP strategy")


# --------------------------------------------------------------------------- #
# Chained gadget (Proposition 4.7)
# --------------------------------------------------------------------------- #


def chained_gadget_prbp_schedule(
    inst: Optional[ChainedGadgetInstance] = None, copies: int = 4, r: Optional[int] = None
) -> PRBPSchedule:
    """The Proposition 4.7 PRBP strategy: total cost 2 regardless of the number of copies."""
    if inst is None:
        inst = chained_gadget_instance(copies)
    r = _resolve_capacity(r, CHAINED_GADGET_MIN_R, "Proposition 4.7 strategy")
    moves: List[MoveRow] = []
    first = inst.gadget_nodes[0]
    moves += [
        _load(inst.u0),
        _comp(inst.u0, first["u1"]),
        _comp(inst.u0, first["u2"]),
        _dele(inst.u0),
    ]
    for g in inst.gadget_nodes:
        u1, u2 = g["u1"], g["u2"]
        w1, w2, w3, w4 = g["w1"], g["w2"], g["w3"], g["w4"]
        v1, v2 = g["v1"], g["v2"]
        moves += [
            _comp(u1, w1),
            _comp(w1, w3),
            _dele(w1),
            _comp(u1, w2),
            _comp(w2, w3),
            _dele(w2),
            _comp(u1, w4),
            _comp(w3, w4),
            _dele(w3),
            _dele(u1),
            _comp(w4, v1),
            _comp(w4, v2),
            _comp(u2, v1),
            _comp(u2, v2),
            _dele(w4),
            _dele(u2),
        ]
    last = inst.gadget_nodes[-1]
    moves += [
        _comp(last["v1"], inst.v0),
        _comp(last["v2"], inst.v0),
        _dele(last["v1"]),
        _dele(last["v2"]),
        _save(inst.v0),
    ]
    return PRBPSchedule.from_rows(
        inst.dag, r, moves, description=f"Proposition 4.7 PRBP strategy ({inst.copies} copies)"
    )


# --------------------------------------------------------------------------- #
# Matrix–vector multiplication (Proposition 4.3)
# --------------------------------------------------------------------------- #


def matvec_prbp_schedule(inst: Optional[MatVecInstance] = None, m: int = 4, r: Optional[int] = None) -> PRBPSchedule:
    """The Proposition 4.3 PRBP strategy for ``A·x``: trivial cost ``m² + 2m`` at ``r = m + 3``.

    The ``m`` partially computed output entries are kept in fast memory for
    the whole pebbling; the matrix is streamed column by column and every
    entry is read exactly once.
    """
    if inst is None:
        inst = matvec_instance(m)
    m = inst.m
    r = _resolve_capacity(r, matvec_min_r(m), "Proposition 4.3 strategy")
    moves: List[MoveRow] = []
    for i in range(m):
        xi = inst.x(i)
        moves.append(_load(xi))
        for j in range(m):
            a = inst.a(j, i)
            p = inst.product(j, i)
            moves += [
                _load(a),
                _comp(a, p),
                _comp(xi, p),
                _dele(a),
                _comp(p, inst.y(j)),
                _dele(p),
            ]
        moves.append(_dele(xi))
    for j in range(m):
        moves.append(_save(inst.y(j)))
    return PRBPSchedule.from_rows(
        inst.dag, r, moves, description="Proposition 4.3 column-streaming PRBP strategy"
    )


# --------------------------------------------------------------------------- #
# Zipper gadget (Proposition 4.4)
# --------------------------------------------------------------------------- #


def zipper_prbp_schedule(inst: Optional[ZipperInstance] = None, d: int = 3, length: int = 8, r: Optional[int] = None) -> PRBPSchedule:
    """The Proposition 4.4 PRBP strategy for the zipper gadget at ``r = d + 2``.

    Phase 1 holds group A and pre-aggregates (and saves) the A-contribution
    of every even chain node; phase 2 holds group B and walks the chain,
    re-loading each pre-aggregated partial value.  Each chain node beyond the
    first costs roughly 2 I/O operations instead of RBP's ``d``.
    """
    if inst is None:
        inst = zipper_instance(d, length)
    d, length = inst.d, inst.length
    r = _resolve_capacity(r, zipper_min_r(d), "zipper PRBP strategy")
    moves: List[MoveRow] = []
    # phase 1: group A resident, pre-aggregate every even chain node
    for a in inst.group_a:
        moves.append(_load(a))
    for i in range(0, length, 2):
        c = inst.chain[i]
        for a in inst.group_a:
            moves.append(_comp(a, c))
        moves.append(_save(c))
        moves.append(_dele(c))
    for a in inst.group_a:
        moves.append(_dele(a))
    # phase 2: group B resident, walk the chain
    for b in inst.group_b:
        moves.append(_load(b))
    prev = None
    for i in range(length):
        c = inst.chain[i]
        if i % 2 == 0:
            # partial value (all A-edges) is in slow memory
            moves.append(_load(c))
            if prev is not None:
                moves.append(_comp(prev, c))
        else:
            moves.append(_comp(prev, c))
            for b in inst.group_b:
                moves.append(_comp(b, c))
        if prev is not None:
            moves.append(_dele(prev))
        prev = c
    moves.append(_save(prev))
    moves.append(_dele(prev))
    for b in inst.group_b:
        moves.append(_dele(b))
    return PRBPSchedule.from_rows(
        inst.dag, r, moves, description="Proposition 4.4 two-phase PRBP strategy"
    )


def zipper_rbp_schedule(inst: Optional[ZipperInstance] = None, d: int = 3, length: int = 8, r: Optional[int] = None) -> RBPSchedule:
    """The classic RBP pebbling of the zipper gadget at ``r = d + 2``: ``d`` loads per chain node.

    The strategy alternates the resident source group, reloading all ``d``
    sources of the other group for every chain node.
    """
    if inst is None:
        inst = zipper_instance(d, length)
    d, length = inst.d, inst.length
    r = _resolve_capacity(r, zipper_min_r(d), "zipper RBP strategy")
    moves: List[MoveRow] = []
    prev = None
    resident: Tuple[int, ...] = ()
    for i in range(length):
        c = inst.chain[i]
        group = inst.group_for(i)
        if group != resident:
            for v in resident:
                moves.append(_dele(v))
            for v in group:
                moves.append(_load(v))
            resident = group
        moves.append(_compute(c))
        if prev is not None:
            moves.append(_dele(prev))
        prev = c
    moves.append(_save(prev))
    return RBPSchedule.from_rows(
        inst.dag, r, moves, description="alternating-group RBP strategy for the zipper gadget"
    )


# --------------------------------------------------------------------------- #
# k-ary reduction trees (Proposition 4.5 / Appendix A.2)
# --------------------------------------------------------------------------- #


def tree_rbp_schedule(inst: Optional[TreeInstance] = None, k: int = 2, depth: int = 3, r: Optional[int] = None) -> RBPSchedule:
    """The optimal RBP pebbling of a k-ary tree at ``r = k + 1`` (Appendix A.2).

    For every internal node above the leaves' parents, ``k - 1`` of its
    children are saved and re-loaded, giving the closed-form cost
    ``k^d + 2·k^(d-1) - 1``.
    """
    if inst is None:
        inst = kary_tree_instance(k, depth)
    k, depth = inst.k, inst.depth
    r = _resolve_capacity(r, tree_min_r(k), "tree RBP strategy")
    moves: List[MoveRow] = []

    def pebble(level: int, index: int) -> None:
        """Emit moves that end with node ``levels[level][index]`` red and nothing else held."""
        v = inst.levels[level][index]
        if level == depth:
            moves.append(_load(v))
            return
        children_indices = list(range(k * index, k * index + k))
        if level == depth - 1:
            # parent of leaves: all children fit simultaneously
            for ci in children_indices:
                moves.append(_load(inst.levels[depth][ci]))
            moves.append(_compute(v))
            for ci in children_indices:
                moves.append(_dele(inst.levels[depth][ci]))
            return
        # higher node: compute the first k-1 child subtrees, saving each result
        for ci in children_indices[:-1]:
            pebble(level + 1, ci)
            c = inst.levels[level + 1][ci]
            moves.append(_save(c))
            moves.append(_dele(c))
        pebble(level + 1, children_indices[-1])
        for ci in children_indices[:-1]:
            moves.append(_load(inst.levels[level + 1][ci]))
        moves.append(_compute(v))
        for ci in children_indices:
            moves.append(_dele(inst.levels[level + 1][ci]))

    pebble(0, 0)
    moves.append(_save(inst.root))
    return RBPSchedule.from_rows(
        inst.dag, r, moves, description="Appendix A.2 RBP strategy for k-ary trees"
    )


def tree_prbp_schedule(inst: Optional[TreeInstance] = None, k: int = 2, depth: int = 3, r: Optional[int] = None) -> PRBPSchedule:
    """The optimal PRBP pebbling of a k-ary tree at ``r = k + 1`` (Appendix A.2).

    Subtrees of depth at most ``k`` are computed without any non-trivial I/O
    using partial computations; every node above them costs ``2·(k-1)`` I/O,
    giving the closed-form cost ``k^d + 2·k^(d-k) - 1``.
    """
    if inst is None:
        inst = kary_tree_instance(k, depth)
    k, depth = inst.k, inst.depth
    r = _resolve_capacity(r, tree_min_r(k), "tree PRBP strategy")
    moves: List[MoveRow] = []

    def pebble_free(level: int, index: int) -> None:
        """Pebble a depth <= k subtree with partial computations only (no I/O beyond leaf loads)."""
        v = inst.levels[level][index]
        if level == depth:
            moves.append(_load(v))
            return
        for ci in range(k * index, k * index + k):
            pebble_free(level + 1, ci)
            c = inst.levels[level + 1][ci]
            moves.append(_comp(c, v))
            moves.append(_dele(c))

    def pebble(level: int, index: int) -> None:
        """Emit moves that end with the node dark red and nothing else held."""
        v = inst.levels[level][index]
        subtree_depth = depth - level
        if subtree_depth <= k:
            pebble_free(level, index)
            return
        children_indices = list(range(k * index, k * index + k))
        # compute the first k-1 children, saving each result to slow memory
        for ci in children_indices[:-1]:
            pebble(level + 1, ci)
            c = inst.levels[level + 1][ci]
            moves.append(_save(c))
            moves.append(_dele(c))
        # compute the last child and aggregate the children one at a time
        pebble(level + 1, children_indices[-1])
        last = inst.levels[level + 1][children_indices[-1]]
        moves.append(_comp(last, v))
        moves.append(_dele(last))
        for ci in children_indices[:-1]:
            c = inst.levels[level + 1][ci]
            moves.append(_load(c))
            moves.append(_comp(c, v))
            moves.append(_dele(c))

    pebble(0, 0)
    moves.append(_save(inst.root))
    moves.append(_dele(inst.root))
    return PRBPSchedule.from_rows(
        inst.dag, r, moves, description="Appendix A.2 PRBP strategy for k-ary trees"
    )


# --------------------------------------------------------------------------- #
# Pebble collection gadget (Proposition 4.6)
# --------------------------------------------------------------------------- #


def collection_full_rbp_schedule(
    inst: Optional[PebbleCollectionInstance] = None, d: int = 3, length: int = 12, r: Optional[int] = None
) -> RBPSchedule:
    """Pebble the collection gadget with all ``d + 2`` red pebbles: only the trivial cost."""
    if inst is None:
        inst = pebble_collection_instance(d, length)
    d, length = inst.d, inst.length
    r = _resolve_capacity(r, collection_min_r(d), "full-pebble RBP strategy")
    moves: List[MoveRow] = [_load(u) for u in inst.sources]
    prev = None
    for i in range(length):
        c = inst.chain[i]
        moves.append(_compute(c))
        if prev is not None:
            moves.append(_dele(prev))
        prev = c
    moves.append(_save(prev))
    return RBPSchedule.from_rows(
        inst.dag, r, moves, description="full-pebble RBP strategy for the collection gadget"
    )


def collection_full_prbp_schedule(
    inst: Optional[PebbleCollectionInstance] = None, d: int = 3, length: int = 12, r: Optional[int] = None
) -> PRBPSchedule:
    """Pebble the collection gadget in PRBP with all ``d + 2`` red pebbles: only the trivial cost."""
    if inst is None:
        inst = pebble_collection_instance(d, length)
    d, length = inst.d, inst.length
    r = _resolve_capacity(r, collection_min_r(d), "full-pebble PRBP strategy")
    moves: List[MoveRow] = [_load(u) for u in inst.sources]
    prev = None
    for i in range(length):
        c = inst.chain[i]
        if prev is not None:
            moves.append(_comp(prev, c))
            moves.append(_dele(prev))
        moves.append(_comp(inst.source_for(i), c))
        prev = c
    moves.append(_save(prev))
    moves.append(_dele(prev))
    for u in inst.sources:
        moves.append(_dele(u))
    return PRBPSchedule.from_rows(
        inst.dag, r, moves, description="full-pebble PRBP strategy for the collection gadget"
    )


# --------------------------------------------------------------------------- #
# Lemma 5.4 fan-in construction
# --------------------------------------------------------------------------- #


def fanin_groups_prbp_schedule(
    inst: Optional[FanInGroupsInstance] = None, num_groups: int = 7, group_size: int = 10, r: Optional[int] = None
) -> PRBPSchedule:
    """The Lemma 5.4 PRBP strategy: trivial cost ``num_groups + 1`` with only 3 red pebbles."""
    if inst is None:
        inst = fanin_groups_instance(num_groups, group_size)
    r = _resolve_capacity(r, FANIN_MIN_R, "Lemma 5.4 strategy")
    moves: List[MoveRow] = []
    sink = inst.sink
    for gi, u in enumerate(inst.sources):
        moves.append(_load(u))
        for w in inst.groups[gi]:
            moves.append(_comp(u, w))
            moves.append(_comp(w, sink))
            moves.append(_dele(w))
        moves.append(_dele(u))
    moves.append(_save(sink))
    moves.append(_dele(sink))
    return PRBPSchedule.from_rows(
        inst.dag, r, moves, description="Lemma 5.4 group-streaming PRBP strategy"
    )


# --------------------------------------------------------------------------- #
# FFT (Theorem 6.9)
# --------------------------------------------------------------------------- #


def fft_blocked_rbp_schedule(inst: Optional[FFTInstance] = None, m: int = 16, r: Optional[int] = None) -> RBPSchedule:
    """Blocked RBP pebbling of the butterfly DAG: ``O(m·log m / log r)`` I/O.

    The DAG is cut into super-levels of ``s = floor(log2 r) - 1`` butterfly
    levels; the lanes of each super-level decompose into independent groups
    of ``2^s`` nodes per level which fit in fast memory (``2^{s+1} <= r``).
    Each group is loaded once and saved once per super-level, which is the
    classical ``2m`` I/O per ``s`` levels.
    """
    if inst is None:
        inst = fft_instance(m)
    m = inst.m
    r = _resolve_capacity(r, FFT_MIN_R, "blocked FFT strategy")
    s = max(1, r.bit_length() - 2)  # largest s with 2^(s+1) <= r
    while (1 << (s + 1)) > r:
        s -= 1
    moves: List[MoveRow] = []
    levels = inst.levels
    t0 = 0
    while t0 < levels:
        span = min(s, levels - t0)
        width = 1 << span
        # lane groups: lanes agreeing on all bits except bits t0 .. t0+span-1
        group_mask = (width - 1) << t0
        bases = [j for j in range(m) if (j & group_mask) == 0]
        for base in bases:
            lanes = [base | (x << t0) for x in range(width)]
            for j in lanes:
                moves.append(_load(inst.node(t0, j)))
            for t in range(t0 + 1, t0 + span + 1):
                for j in lanes:
                    moves.append(_compute(inst.node(t, j)))
                for j in lanes:
                    moves.append(_dele(inst.node(t - 1, j)))
            for j in lanes:
                moves.append(_save(inst.node(t0 + span, j)))
                moves.append(_dele(inst.node(t0 + span, j)))
        t0 += span
    return RBPSchedule.from_rows(
        inst.dag, r, moves, description=f"blocked RBP strategy ({s} levels per pass)"
    )


def fft_blocked_prbp_schedule(inst: Optional[FFTInstance] = None, m: int = 16, r: Optional[int] = None) -> PRBPSchedule:
    """The blocked FFT strategy converted to PRBP (Proposition 4.1): identical I/O cost."""
    return convert_rbp_to_prbp(fft_blocked_rbp_schedule(inst, m, r))


# --------------------------------------------------------------------------- #
# Matrix multiplication (Theorem 6.10)
# --------------------------------------------------------------------------- #


def matmul_tiled_prbp_schedule(
    inst: Optional[MatMulInstance] = None,
    m1: int = 4,
    m2: int = 4,
    m3: int = 4,
    r: Optional[int] = None,
) -> PRBPSchedule:
    """Tiled (outer-product) PRBP pebbling of matmul: ``O(m1·m2·m3/√r)`` I/O.

    A ``b × b`` block of ``C`` is kept in fast memory as dark-red partial
    values (``b = ⌊√r⌋ - 1``); for every inner index ``k`` the relevant
    column of ``A`` and row of ``B`` are streamed through fast memory.  This
    is exactly the outer-product formulation the paper points to (BLIS-style
    micro-kernels, Section 8.2).
    """
    if inst is None:
        inst = matmul_instance(m1, m2, m3)
    m1, m2, m3 = inst.m1, inst.m2, inst.m3
    r = _resolve_capacity(r, MATMUL_MIN_R, "tiled matmul strategy")
    b = int(math.isqrt(r)) - 1
    while b > 1 and b * b + 2 * b + 1 > r:
        b -= 1
    moves: List[MoveRow] = []
    for i0 in range(0, m1, b):
        bi = min(b, m1 - i0)
        for j0 in range(0, m3, b):
            bj = min(b, m3 - j0)
            for k in range(m2):
                a_nodes = [inst.a(i, k) for i in range(i0, i0 + bi)]
                b_nodes = [inst.b(k, j) for j in range(j0, j0 + bj)]
                for a in a_nodes:
                    moves.append(_load(a))
                for bn in b_nodes:
                    moves.append(_load(bn))
                for i in range(i0, i0 + bi):
                    for j in range(j0, j0 + bj):
                        p = inst.product(i, k, j)
                        moves += [
                            _comp(inst.a(i, k), p),
                            _comp(inst.b(k, j), p),
                            _comp(p, inst.c(i, j)),
                            _dele(p),
                        ]
                for a in a_nodes:
                    moves.append(_dele(a))
                for bn in b_nodes:
                    moves.append(_dele(bn))
            for i in range(i0, i0 + bi):
                for j in range(j0, j0 + bj):
                    moves.append(_save(inst.c(i, j)))
                    moves.append(_dele(inst.c(i, j)))
    return PRBPSchedule.from_rows(
        inst.dag, r, moves, description=f"outer-product tiled PRBP strategy (block {b})"
    )


# --------------------------------------------------------------------------- #
# Attention (Theorem 6.11)
# --------------------------------------------------------------------------- #


def attention_flash_prbp_schedule(
    inst: Optional[AttentionInstance] = None,
    m: int = 8,
    d: int = 2,
    r: Optional[int] = None,
) -> PRBPSchedule:
    """Flash-attention-style tiled PRBP pebbling of the ``Q·Kᵀ`` + exp DAG.

    A block of ``bi`` rows of ``Q`` stays resident (``bi·d`` values); the
    columns of ``Kᵀ`` are streamed once per row block, so the matrix-product
    traffic is ``m·d + m²·d/bi ≈ m·d + m²·d²/r`` loads — the large-cache
    behaviour matched by the Theorem 6.11 lower bound.  The ``m²``
    exponentiated scores are sinks of this (truncated) DAG and account for an
    additional, unavoidable ``m²`` saves of trivial cost.
    """
    if inst is None:
        inst = attention_instance(m, d)
    if inst.include_softmax:
        raise SolverError("the flash-style strategy targets the truncated attention DAG")
    m, d = inst.m, inst.d
    r = _resolve_capacity(r, attention_min_r(d), "flash-style attention strategy")
    bi = max(1, (r - d - 3) // d)
    bi = min(bi, m)
    moves: List[MoveRow] = []
    for i0 in range(0, m, bi):
        rows = range(i0, min(i0 + bi, m))
        q_nodes = [inst.q(i, k) for i in rows for k in range(d)]
        for q in q_nodes:
            moves.append(_load(q))
        for j in range(m):
            kt_nodes = [inst.kt(k, j) for k in range(d)]
            for kt in kt_nodes:
                moves.append(_load(kt))
            for i in rows:
                s = inst.score(i, j)
                for k in range(d):
                    p = inst.product(i, j, k)
                    moves += [
                        _comp(inst.q(i, k), p),
                        _comp(inst.kt(k, j), p),
                        _comp(p, s),
                        _dele(p),
                    ]
                e = inst.exp(i, j)
                moves += [_comp(s, e), _dele(s), _save(e), _dele(e)]
            for kt in kt_nodes:
                moves.append(_dele(kt))
        for q in q_nodes:
            moves.append(_dele(q))
    return PRBPSchedule.from_rows(
        inst.dag, r, moves, description=f"flash-style tiled PRBP strategy (row block {bi})"
    )
