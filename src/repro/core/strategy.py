"""Schedule containers: pebbling strategies with cost accounting.

The solvers and the structured strategy generators all return
:class:`RBPSchedule` or :class:`PRBPSchedule` objects — a move list bundled
with the DAG, the capacity and the variant it was built for.  The
``validate`` / ``cost`` / ``stats`` helpers replay the schedule through the
engine; :func:`repro.api.solve` calls ``stats`` exactly once per solve, so a
reported cost is always the cost of an actually legal pebbling, never a
formula taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

from .dag import ComputationalDAG
from .moves import MoveKind, PRBPMove, RBPMove
from .prbp import PRBPGame, run_prbp_schedule
from .rbp import RBPGame, run_rbp_schedule
from .variants import ONE_SHOT, GameVariant

__all__ = ["RBPSchedule", "PRBPSchedule", "ScheduleStats"]


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


def _replay_stats(game: Union[RBPGame, PRBPGame], moves: Sequence) -> ScheduleStats:
    """Apply ``moves`` to a fresh engine ``game`` and summarise the completed pebbling."""
    peak = loads = saves = computes = deletes = clears = 0
    for mv in moves:
        game.apply(mv)
        peak = max(peak, game.red_count())
        if mv.kind is MoveKind.LOAD:
            loads += 1
        elif mv.kind is MoveKind.SAVE:
            saves += 1
        elif mv.kind is MoveKind.COMPUTE:
            computes += 1
        elif mv.kind is MoveKind.DELETE:
            deletes += 1
        elif mv.kind is MoveKind.CLEAR:
            clears += 1
    game.assert_terminal()
    return ScheduleStats(
        io_cost=game.io_cost,
        loads=loads,
        saves=saves,
        computes=computes,
        deletes=deletes,
        clears=clears,
        total_cost=game.total_cost,
        peak_red=peak,
    )


@dataclass
class RBPSchedule:
    """A complete red-blue pebbling of ``dag`` with capacity ``r``.

    The ``description`` field is free-form provenance ("exhaustive optimum",
    "Prop 4.3 row-streaming strategy", ...).
    """

    dag: ComputationalDAG
    r: int
    moves: List[RBPMove]
    variant: GameVariant = ONE_SHOT
    description: str = ""

    def validate(self) -> RBPGame:
        """Replay through the engine; raises if any move is illegal or the pebbling is incomplete."""
        return run_rbp_schedule(self.dag, self.r, self.moves, variant=self.variant)

    def cost(self) -> int:
        """I/O cost of the (validated) schedule."""
        return self.validate().io_cost

    def stats(self) -> ScheduleStats:
        """Replay the schedule and return per-kind move counts and the peak red-pebble usage."""
        game = RBPGame(self.dag, self.r, variant=self.variant, record_history=False)
        return _replay_stats(game, self.moves)

    def __len__(self) -> int:
        return len(self.moves)


@dataclass
class PRBPSchedule:
    """A complete partial-computing pebbling of ``dag`` with capacity ``r``."""

    dag: ComputationalDAG
    r: int
    moves: List[PRBPMove]
    variant: GameVariant = ONE_SHOT
    description: str = ""

    def validate(self) -> PRBPGame:
        """Replay through the engine; raises if any move is illegal or the pebbling is incomplete."""
        return run_prbp_schedule(self.dag, self.r, self.moves, variant=self.variant)

    def cost(self) -> int:
        """I/O cost of the (validated) schedule."""
        return self.validate().io_cost

    def stats(self) -> ScheduleStats:
        """Replay the schedule and return per-kind move counts and the peak red-pebble usage."""
        game = PRBPGame(self.dag, self.r, variant=self.variant, record_history=False)
        return _replay_stats(game, self.moves)

    def io_subsequence_boundaries(self) -> List[int]:
        """Indices (into ``moves``) that end each block of ``r`` I/O operations.

        This is the subdivision used by Lemma 6.4 / Lemma 6.8 to turn a PRBP
        strategy into an (2r)-edge partition / (2r)-dominator partition; the
        partition extractors in :mod:`repro.bounds.partitions` consume it.
        """
        boundaries: List[int] = []
        io_seen = 0
        for i, mv in enumerate(self.moves):
            if mv.is_io:
                io_seen += 1
                if io_seen % self.r == 0:
                    boundaries.append(i)
        return boundaries

    def __len__(self) -> int:
        return len(self.moves)
