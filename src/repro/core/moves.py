"""Move (transition-rule) representations for RBP and PRBP schedules.

A *pebbling strategy* (we also say *schedule*) is a finite sequence of moves.
This module defines one dataclass per game so schedules can be constructed
programmatically, pretty-printed, serialised and replayed through the
engines.

RBP moves (Hong & Kung rules, Section 1 of the paper)
-----------------------------------------------------

======== =========================================================
kind      meaning
======== =========================================================
``load``  place a red pebble on a node holding a blue pebble
``save``  place a blue pebble on a node holding a red pebble
``compute`` place a red pebble on a non-source whose inputs are all red
``delete`` remove a red pebble
======== =========================================================

PRBP moves (Section 3)
----------------------

======== =========================================================
kind      meaning
======== =========================================================
``load``  place a light red pebble on a node holding a blue pebble
``save``  replace a dark red pebble by blue + light red
``compute`` *partial compute* along a single edge ``(u, v)``: mark the edge
            and leave a dark red pebble on ``v``
``delete`` remove a light red pebble, or a dark red pebble whose node has
            all out-edges marked
``clear``  (re-computation variant only, Appendix B.1) remove every pebble
            from a non-source non-sink node and unmark all its in-edges
======== =========================================================

I/O moves (``load``/``save``) have unit cost; ``compute``/``delete``/``clear``
are free unless a compute-cost variant is configured on the engine.

Rows
----

Schedules store their moves as ``(op, node, arg)`` int rows, the form every
builder emits and the replay kernel reads.  The encoding is lossless for
both games:

========= ======================= =========================================
op code    RBP row                 PRBP row
========= ======================= =========================================
``0`` load    ``(0, v, -1)``         ``(0, v, -1)``
``1`` save    ``(1, v, -1)``         ``(1, v, -1)``
``2`` compute ``(2, v, slide|-1)``   ``(2, u, v)`` (partial compute on edge)
``3`` delete  ``(3, v, -1)``         ``(3, v, -1)``
``4`` clear   (illegal in RBP)       ``(4, v, -1)``
========= ======================= =========================================

:func:`encode_moves` and :func:`decode_moves` translate between Move objects
and rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "MoveKind",
    "RBPMove",
    "PRBPMove",
    "rbp",
    "prbp",
    "MoveRow",
    "OP_LOAD",
    "OP_SAVE",
    "OP_COMPUTE",
    "OP_DELETE",
    "OP_CLEAR",
    "OP_NAMES",
    "encode_moves",
    "decode_moves",
]


class MoveKind(str, Enum):
    """The transition-rule applied by a move (shared by both games)."""

    LOAD = "load"
    SAVE = "save"
    COMPUTE = "compute"
    DELETE = "delete"
    #: Re-computation from scratch (PRBP extension of Appendix B.1 only).
    CLEAR = "clear"

    @property
    def is_io(self) -> bool:
        """True iff the move is a save or a load (the moves that cost I/O)."""
        return self in (MoveKind.LOAD, MoveKind.SAVE)


@dataclass(frozen=True)
class RBPMove:
    """A single move in the classic red-blue pebble game.

    ``node`` identifies the target node for every rule.  For the *sliding*
    variant of the compute rule (Appendix B.2) ``slide_from`` names the input
    whose red pebble is moved onto ``node``; it must be ``None`` otherwise.
    """

    kind: MoveKind
    node: int
    slide_from: Optional[int] = None

    def __post_init__(self) -> None:
        if self.slide_from is not None and self.kind is not MoveKind.COMPUTE:
            raise ValueError("slide_from is only meaningful for compute moves")

    @property
    def is_io(self) -> bool:
        """True iff the move costs one I/O operation."""
        return self.kind.is_io

    def __str__(self) -> str:
        if self.kind is MoveKind.COMPUTE and self.slide_from is not None:
            return f"compute {self.node} (slide from {self.slide_from})"
        return f"{self.kind.value} {self.node}"


@dataclass(frozen=True)
class PRBPMove:
    """A single move in the partial-computing red-blue pebble game.

    ``load``/``save``/``delete``/``clear`` target a node (``node`` set,
    ``edge`` ``None``); a partial ``compute`` targets an edge (``edge`` set,
    ``node`` ``None``).
    """

    kind: MoveKind
    node: Optional[int] = None
    edge: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.kind is MoveKind.COMPUTE:
            if self.edge is None or self.node is not None:
                raise ValueError("a partial compute move targets exactly one edge")
        else:
            if self.node is None or self.edge is not None:
                raise ValueError(f"a {self.kind.value} move targets exactly one node")

    @property
    def is_io(self) -> bool:
        """True iff the move costs one I/O operation."""
        return self.kind.is_io

    def __str__(self) -> str:
        if self.kind is MoveKind.COMPUTE:
            assert self.edge is not None
            return f"partial compute ({self.edge[0]}, {self.edge[1]})"
        return f"{self.kind.value} {self.node}"


class rbp:
    """Terse constructors for :class:`RBPMove` (``rbp.load(3)``, ``rbp.compute(5)``...)."""

    @staticmethod
    def load(node: int) -> RBPMove:
        """Rule 2: place a red pebble on a node that has a blue pebble."""
        return RBPMove(MoveKind.LOAD, node)

    @staticmethod
    def save(node: int) -> RBPMove:
        """Rule 1: place a blue pebble on a node that has a red pebble."""
        return RBPMove(MoveKind.SAVE, node)

    @staticmethod
    def compute(node: int, slide_from: Optional[int] = None) -> RBPMove:
        """Rule 3: compute a non-source whose inputs all carry red pebbles."""
        return RBPMove(MoveKind.COMPUTE, node, slide_from)

    @staticmethod
    def delete(node: int) -> RBPMove:
        """Rule 4: remove a red pebble."""
        return RBPMove(MoveKind.DELETE, node)


class prbp:
    """Terse constructors for :class:`PRBPMove` (``prbp.compute(2, 5)``...)."""

    @staticmethod
    def load(node: int) -> PRBPMove:
        """Rule 2: place a light red pebble on a node that has a blue pebble."""
        return PRBPMove(MoveKind.LOAD, node=node)

    @staticmethod
    def save(node: int) -> PRBPMove:
        """Rule 1: replace a dark red pebble by a blue and a light red pebble."""
        return PRBPMove(MoveKind.SAVE, node=node)

    @staticmethod
    def compute(u: int, v: int) -> PRBPMove:
        """Rule 3: partial compute along the edge ``(u, v)``."""
        return PRBPMove(MoveKind.COMPUTE, edge=(u, v))

    @staticmethod
    def delete(node: int) -> PRBPMove:
        """Rule 4: remove a light red pebble, or a finished dark red pebble."""
        return PRBPMove(MoveKind.DELETE, node=node)

    @staticmethod
    def clear(node: int) -> PRBPMove:
        """Rule 5 of the re-computation variant: reset a node for re-computation."""
        return PRBPMove(MoveKind.CLEAR, node=node)


# --------------------------------------------------------------------------- #
# rows: the (op, node, arg) encoding of moves
# --------------------------------------------------------------------------- #

MoveRow = Tuple[int, int, int]

OP_LOAD = 0
OP_SAVE = 1
OP_COMPUTE = 2
OP_DELETE = 3
OP_CLEAR = 4

OP_NAMES = ("load", "save", "compute", "delete", "clear")

_KIND_OF_OP: Tuple[MoveKind, ...] = (
    MoveKind.LOAD,
    MoveKind.SAVE,
    MoveKind.COMPUTE,
    MoveKind.DELETE,
    MoveKind.CLEAR,
)

_OP_OF_KIND: Dict[MoveKind, int] = {kind: op for op, kind in enumerate(_KIND_OF_OP)}


def encode_moves(game: str, moves: Iterable[Union[RBPMove, PRBPMove]]) -> List[MoveRow]:
    """Moves -> ``(op, node, arg)`` int rows.

    The mapping is a bijection: ``decode_moves(game, encode_moves(game,
    moves))`` reproduces ``moves`` exactly, so row tuples can stand in for
    Move objects anywhere identity matters (candidate signatures, dedup).
    """
    rows: List[MoveRow] = []
    if game == "rbp":
        for mv in moves:
            slide = mv.slide_from  # type: ignore[union-attr]
            rows.append((_OP_OF_KIND[mv.kind], mv.node, -1 if slide is None else slide))  # type: ignore[arg-type]
    else:
        for mv in moves:
            if mv.kind is MoveKind.COMPUTE:
                u, v = mv.edge  # type: ignore[union-attr, misc]
                rows.append((OP_COMPUTE, u, v))
            else:
                rows.append((_OP_OF_KIND[mv.kind], mv.node, -1))  # type: ignore[arg-type]
    return rows


def decode_moves(game: str, rows: Iterable[Sequence[int]]) -> List[Union[RBPMove, PRBPMove]]:
    """``(op, node, arg)`` rows -> Move objects; raises ``ValueError`` on malformed rows."""
    moves: List[Union[RBPMove, PRBPMove]] = []
    for row in rows:
        op, x, y = int(row[0]), int(row[1]), int(row[2])
        if not 0 <= op < len(_KIND_OF_OP):
            raise ValueError(f"unknown op code {op}")
        kind = _KIND_OF_OP[op]
        if game == "rbp":
            moves.append(RBPMove(kind, x, None if y < 0 else y))
        elif op == OP_COMPUTE:
            if y < 0:
                raise ValueError(f"a PRBP compute row needs an edge head, got arg={y}")
            moves.append(PRBPMove(kind, edge=(x, y)))
        else:
            if y != -1:
                raise ValueError(f"a PRBP {kind.value} row must carry arg=-1, got {y}")
            moves.append(PRBPMove(kind, node=x))
    return moves
