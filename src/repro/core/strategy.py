"""Schedule containers: pebbling strategies with cost accounting.

The solvers and the structured strategy generators all return
:class:`RBPSchedule` or :class:`PRBPSchedule` objects — a move list bundled
with the DAG, the capacity and the variant it was built for.  ``stats``
replays the schedule through the schedule-IR kernel; :func:`repro.api.solve`
calls it exactly once per solve, so a reported cost is always the cost of an
actually legal pebbling, never a formula taken on faith.  ``validate`` /
``cost`` replay through the game engines, the reference the kernel is
differentially tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from .dag import ComputationalDAG
from .exceptions import PebblingError
from .moves import PRBPMove, RBPMove
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


def _kernel_stats(schedule: Union["RBPSchedule", "PRBPSchedule"]) -> ScheduleStats:
    """One kernel replay; a refused schedule is replayed by the engine to raise its message."""
    from .schedule_ir import from_schedule, kernel_stats  # schedule_ir imports this module

    try:
        return kernel_stats(from_schedule(schedule))
    except (PebblingError, ValueError):  # ValueError: a game that cannot start, a bad node id
        schedule.validate()
        raise  # the engine accepted it: the kernel's error stands


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
        return _kernel_stats(self)

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
        return _kernel_stats(self)

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
