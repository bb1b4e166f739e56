"""Core substrate: computational DAGs, the RBP and PRBP engines, schedules.

This package contains everything needed to *define and validate* pebblings;
algorithms that *find* pebblings live in :mod:`repro.solvers`, and the
lower-bound machinery lives in :mod:`repro.bounds`.
"""

from .dag import ComputationalDAG, DAGFamily, Edge
from .exceptions import (
    CapacityExceededError,
    DAGError,
    IllegalMoveError,
    IncompletePebblingError,
    PartitionError,
    PebblingError,
    SolverError,
)
from .moves import MoveKind, PRBPMove, RBPMove, prbp, rbp
from .pebbles import PRBPState
from .prbp import PRBPGame, is_valid_prbp_schedule, prbp_schedule_cost, run_prbp_schedule
from .rbp import RBPGame, is_valid_rbp_schedule, rbp_schedule_cost, run_rbp_schedule
from .strategy import PRBPSchedule, RBPSchedule, ScheduleStats
from .conversion import convert_rbp_to_prbp
from .variants import NO_DELETE, ONE_SHOT, RECOMPUTE, SLIDING, GameVariant

__all__ = [
    "ComputationalDAG",
    "DAGFamily",
    "Edge",
    "PebblingError",
    "DAGError",
    "IllegalMoveError",
    "CapacityExceededError",
    "IncompletePebblingError",
    "SolverError",
    "PartitionError",
    "MoveKind",
    "RBPMove",
    "PRBPMove",
    "rbp",
    "prbp",
    "PRBPState",
    "RBPGame",
    "PRBPGame",
    "run_rbp_schedule",
    "run_prbp_schedule",
    "is_valid_rbp_schedule",
    "is_valid_prbp_schedule",
    "rbp_schedule_cost",
    "prbp_schedule_cost",
    "RBPSchedule",
    "PRBPSchedule",
    "ScheduleStats",
    "convert_rbp_to_prbp",
    "GameVariant",
    "ONE_SHOT",
    "RECOMPUTE",
    "SLIDING",
    "NO_DELETE",
]
