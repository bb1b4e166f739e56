"""Schedule containers: pebbling strategies with cost accounting.

The solvers and the structured strategy generators all return
:class:`RBPSchedule` or :class:`PRBPSchedule` objects — the moves as
``(op, node, arg)`` int rows (encoded as in :mod:`repro.core.moves`),
bundled with the DAG, the capacity and the variant they were built for.
Builders construct a schedule from rows (:meth:`RBPSchedule.from_rows`);
the Move-list constructor encodes its moves, and ``.moves`` decodes the
rows into Move objects on first access.

``stats`` replays the rows through the replay kernel of
:mod:`repro.core.schedule_ir`; :func:`repro.api.solve` calls it exactly once
per solve, so a reported cost is always the cost of an actually legal
pebbling, never a formula taken on faith.  ``validate`` / ``cost`` replay
``.moves`` through the game engines, the reference the kernel is
differentially tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Type, TypeVar, Union

from .dag import ComputationalDAG
from .exceptions import PebblingError
from .moves import OP_SAVE, MoveRow, PRBPMove, RBPMove, decode_moves, encode_moves
from .prbp import PRBPGame, run_prbp_schedule
from .rbp import RBPGame, run_rbp_schedule
from .variants import ONE_SHOT, GameVariant

__all__ = ["RBPSchedule", "PRBPSchedule", "ScheduleStats"]

_S = TypeVar("_S", bound="_Schedule")


@dataclass(frozen=True)
class ScheduleStats:
    """Summary statistics of a validated schedule."""

    io_cost: int
    loads: int
    saves: int
    computes: int
    deletes: int
    clears: int
    total_cost: float
    peak_red: int

    @property
    def moves(self) -> int:
        """Total number of moves in the schedule."""
        return self.loads + self.saves + self.computes + self.deletes + self.clears


class _Schedule:
    """What both games' schedules share: the header, the rows and the Move view.

    ``rows`` is a list of ``(op, node, arg)`` int tuples, read-only by
    convention (``.moves``, the digests and ``_op_counts`` would drift
    otherwise).  ``_op_counts``, the rows per op code, is set once the
    replay kernel's row check (known op codes, in-range node ids) has
    passed, so the check runs once per schedule.
    """

    __slots__ = ("dag", "r", "rows", "variant", "description", "_moves", "_op_counts")

    #: ``"rbp"`` or ``"prbp"``: which game the rows belong to.
    game: ClassVar[str]

    def __init__(
        self,
        dag: ComputationalDAG,
        r: int,
        moves: Sequence[Union[RBPMove, PRBPMove]],
        variant: GameVariant = ONE_SHOT,
        description: str = "",
    ) -> None:
        self._set(dag, r, encode_moves(self.game, moves), variant, description)

    @classmethod
    def from_rows(
        cls: Type[_S],
        dag: ComputationalDAG,
        r: int,
        rows: List[MoveRow],
        variant: GameVariant = ONE_SHOT,
        description: str = "",
    ) -> _S:
        """A schedule holding ``rows`` as they are (no copy, no check)."""
        schedule = cls.__new__(cls)
        schedule._set(dag, r, rows, variant, description)
        return schedule

    def _set(
        self,
        dag: ComputationalDAG,
        r: int,
        rows: List[MoveRow],
        variant: GameVariant,
        description: str,
    ) -> None:
        self.dag = dag
        self.r = r
        self.rows = rows
        self.variant = variant
        self.description = description
        self._moves: Optional[list] = None
        self._op_counts: Optional[List[int]] = None

    @property
    def moves(self) -> list:
        """The rows as Move objects, decoded on first access."""
        if self._moves is None:
            self._moves = decode_moves(self.game, self.rows)
        return self._moves

    def cost(self) -> int:
        """I/O cost of the (validated) schedule."""
        return self.validate().io_cost

    def stats(self) -> ScheduleStats:
        """Replay the schedule and return per-kind move counts and the peak red-pebble usage.

        One kernel replay; a schedule the kernel refuses is replayed by the
        engine to raise its message.
        """
        from .schedule_ir import kernel_stats  # schedule_ir imports this module

        try:
            return kernel_stats(self)
        except (PebblingError, ValueError):  # ValueError: a game that cannot start, a bad node id
            self.validate()
            raise  # the engine accepted it: the kernel's error stands

    def __len__(self) -> int:
        return len(self.rows)

    def _key(self) -> tuple:
        return (self.dag, self.r, self.rows, self.variant, self.description)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.dag.n}, r={self.r}, moves={len(self.rows)}, "
            f"variant={self.variant!r}, description={self.description!r})"
        )


class RBPSchedule(_Schedule):
    """A complete red-blue pebbling of ``dag`` with capacity ``r``.

    The ``description`` field is free-form provenance ("exhaustive optimum",
    "Prop 4.3 row-streaming strategy", ...).
    """

    __slots__ = ()
    game = "rbp"

    def validate(self) -> RBPGame:
        """Replay through the engine; raises if any move is illegal or the pebbling is incomplete."""
        return run_rbp_schedule(self.dag, self.r, self.moves, variant=self.variant)


class PRBPSchedule(_Schedule):
    """A complete partial-computing pebbling of ``dag`` with capacity ``r``."""

    __slots__ = ()
    game = "prbp"

    def validate(self) -> PRBPGame:
        """Replay through the engine; raises if any move is illegal or the pebbling is incomplete."""
        return run_prbp_schedule(self.dag, self.r, self.moves, variant=self.variant)

    def io_subsequence_boundaries(self) -> List[int]:
        """Indices (into ``moves``) that end each block of ``r`` I/O operations.

        This is the subdivision used by Lemma 6.4 / Lemma 6.8 to turn a PRBP
        strategy into an (2r)-edge partition / (2r)-dominator partition; the
        partition extractors in :mod:`repro.bounds.partitions` consume it.
        """
        boundaries: List[int] = []
        io_seen = 0
        for i, (op, _, _) in enumerate(self.rows):
            if op <= OP_SAVE:
                io_seen += 1
                if io_seen % self.r == 0:
                    boundaries.append(i)
        return boundaries
