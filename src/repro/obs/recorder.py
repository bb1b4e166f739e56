"""Per-solve recorder: where one solver run leaves its search and refinement data.

:func:`repro.api.dispatch.solve` runs each solver inside :func:`recording`;
the A* search stores its ``SearchTelemetry`` and the anytime refiner its
``RefinementTrajectory`` on the recorder.  It lives in a ``ContextVar``, so
concurrent solves in one process (threads, asyncio tasks) never see each
other's data.  Outside :func:`recording` writers store nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator, Optional

__all__ = ["SolveRecorder", "recording", "current_recorder"]


@dataclass
class SolveRecorder:
    """What one solver run reported; a later write replaces an earlier one."""

    search: Optional[Any] = None  # repro.solvers.exhaustive.SearchTelemetry
    refinement: Optional[Any] = None  # repro.solvers.anytime.RefinementTrajectory


_CURRENT: ContextVar[Optional[SolveRecorder]] = ContextVar("repro_solve_recorder", default=None)


@contextmanager
def recording() -> Iterator[SolveRecorder]:
    """Install a fresh recorder for the duration of the block."""
    recorder = SolveRecorder()
    token = _CURRENT.set(recorder)
    try:
        yield recorder
    finally:
        _CURRENT.reset(token)


def current_recorder() -> Optional[SolveRecorder]:
    """The recorder of the solve running in this context, if any."""
    return _CURRENT.get()
