"""Worker pool of the solve service: process fan-out with a thread fallback.

Plain (non-streamed) solves run in a ``ProcessPoolExecutor`` — the same
execution substrate :func:`repro.api.solve_many` uses — so a multi-core
host actually solves concurrently.  Two classes of work cannot use worker
processes and fall back to a thread:

* **streamed solves** — the anytime-progress callback must reach the event
  loop while the solve runs, and a callable cannot cross a process
  boundary;
* **everything**, when the platform cannot create worker processes at all
  (sandboxes, missing semaphores): the pool degrades to thread mode
  instead of failing requests, exactly like the batch layer's serial
  fallback.

Both modes run the batch layer's task, :func:`repro.api.batch.solve_task`.
Thread-mode solves run side by side, up to ``max_workers`` at a time: each
solve keeps its A* counters and refinement trajectory in its own
:class:`~repro.obs.recorder.SolveRecorder`.
"""

from __future__ import annotations

import asyncio
import pickle
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional

from ..api.batch import solve_task
from ..api.problem import PebblingProblem
from ..api.result import SolveResult
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import TraceContext

__all__ = ["WorkerPool"]

#: Progress sink: called with (cost, elapsed_s) from the solving thread.
ProgressFn = Callable[[int, float], None]


class WorkerPool:
    """Executes solves for the service; see the module docstring for modes."""

    def __init__(
        self,
        max_workers: int = 2,
        prefer_processes: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.prefer_processes = prefer_processes
        self._busy_gauge = None
        self._workers_gauge = None
        self._solves_counter = None
        if metrics is not None:
            self._busy_gauge = metrics.gauge(
                "repro_pool_busy", "Solves currently executing in the worker pool."
            )
            self._workers_gauge = metrics.gauge(
                "repro_pool_workers", "Configured worker-pool size."
            )
            self._solves_counter = metrics.counter(
                "repro_pool_solves_total",
                "Solves executed, by pool mode.",
                labels=("mode",),
            )
        self._process_pool: Optional[ProcessPoolExecutor] = None
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._fallback_reason: Optional[str] = None
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Create executors eagerly — before the event loop spawns helper
        threads, so a ``fork``-based pool never forks a multi-threaded
        parent."""
        if self._started:
            return
        self._started = True
        if self._workers_gauge is not None:
            self._workers_gauge.set(self.max_workers)
        self._thread_pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-service-solve"
        )
        if not self.prefer_processes:
            self._fallback_reason = "process workers disabled by configuration"
            return
        try:
            self._process_pool = ProcessPoolExecutor(max_workers=self.max_workers)
        except (OSError, RuntimeError, PermissionError) as exc:
            self._process_pool = None
            self._fallback_reason = f"{type(exc).__name__}: {exc}"

    def shutdown(self) -> None:
        """Release both executors (idempotent)."""
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=False, cancel_futures=True)
            self._process_pool = None
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=False, cancel_futures=True)
            self._thread_pool = None

    @property
    def mode(self) -> str:
        """``"process"`` or ``"thread"`` — how plain solves currently run."""
        return "process" if self._process_pool is not None else "thread"

    @property
    def fallback_reason(self) -> Optional[str]:
        """Why the pool is (or became) thread-mode, if it is."""
        return self._fallback_reason

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    async def run(
        self,
        problem: PebblingProblem,
        solver: str,
        options: Dict[str, Any],
        on_progress: Optional[ProgressFn] = None,
        trace: Optional[TraceContext] = None,
    ) -> SolveResult:
        """Solve one problem off the event loop; raises :class:`SolverError`.

        ``on_progress`` (already thread-safe — the server wraps it in
        ``loop.call_soon_threadsafe``) forces the thread path.  ``trace``
        is installed as the ambient trace context around the solve so the
        dispatch layer's spans join the request's trace.
        """
        if not self._started:
            self.start()
        loop = asyncio.get_running_loop()
        if self._busy_gauge is not None:
            self._busy_gauge.inc()
        try:
            return await self._run(loop, problem, solver, options, on_progress, trace)
        finally:
            if self._busy_gauge is not None:
                self._busy_gauge.dec()

    async def _run(
        self,
        loop: asyncio.AbstractEventLoop,
        problem: PebblingProblem,
        solver: str,
        options: Dict[str, Any],
        on_progress: Optional[ProgressFn],
        trace: Optional[TraceContext],
    ) -> SolveResult:
        assert self._thread_pool is not None, "WorkerPool.start() must run first"
        options = dict(options)
        if on_progress is not None:
            options["on_progress"] = on_progress
        payload = (problem, solver, options, 1, trace.to_wire() if trace else None)
        mode = "thread" if on_progress is not None or self._process_pool is None else "process"
        if mode == "process":
            try:
                tag, value = await loop.run_in_executor(self._process_pool, solve_task, payload)
            except (BrokenProcessPool, pickle.PicklingError) as exc:
                # The *pool* died under this task (worker OOM-killed, platform
                # revoked fork) or the task cannot cross the process boundary.
                # Degrade to thread mode permanently and run this solve there
                # — availability over parallelism.  Any other exception is the
                # task's own bug and must fail only this job: treating it as
                # a broken pool would let one bad request de-parallelize the
                # whole daemon.
                self._abandon_processes(f"{type(exc).__name__}: {exc}")
                mode = "thread"
        if mode == "thread":
            tag, value = await loop.run_in_executor(self._thread_pool, solve_task, payload)
        if self._solves_counter is not None:
            self._solves_counter.inc(mode=mode)
        if tag == "solver_error":
            raise value
        return value

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _abandon_processes(self, reason: str) -> None:
        self._fallback_reason = reason
        pool, self._process_pool = self._process_pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
