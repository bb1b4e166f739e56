"""The resident solve service: asyncio TCP server over the repro.api solvers.

One :class:`SolveService` owns the whole request path::

    client ──frame──▶ connection handler ──admit──▶ AdmissionQueue
                                │  cache hit? answer immediately
                                │  identical solve in flight? share its future
                                ▼
                       dispatcher tasks ──▶ WorkerPool (processes / threads)
                                │                   │ anytime progress
                                ▼                   ▼ (streamed solves)
                       shared ResultCache      subscriber queues ──frame──▶ client

What a resident process buys over the one-shot CLI: imports are paid once,
the result cache stays warm across requests *and* clients (memory LRU plus
the persistent disk tier), identical concurrent requests collapse into one
solve, and the anytime refiner's improving schedules stream to the client
while the solve is still running instead of being invisible until it
returns.

The listener, the per-connection frame loop, the admin ops and the
shutdown sequence are :class:`~repro.service.frames.FrameServer`'s, shared
with the cluster router.  Request handling is sequential per connection;
clients that want concurrency open several connections — they are cheap,
and the admission queue is the actual scheduling point.

Graceful shutdown (``drain=True``) stops admitting, finishes every queued
and running job, flushes the responses, then closes; ``drain=False`` fails
queued jobs with ``shutting-down`` instead of running them.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..api.cache import ResultCache, cacheable_options, problem_digest
from ..api.result import SolveResult
from ..core.exceptions import SolverError
from ..obs.tracing import Span, TraceContext
from . import protocol
from .frames import FrameServer
from .protocol import ProtocolError, make_response, write_frame
from .queue import (
    AdmissionQueue,
    DeadlineExceeded,
    JobState,
    QueueClosed,
    QueueFull,
    ServiceJob,
)
from .workers import WorkerPool

__all__ = ["ServiceConfig", "SolveService"]


@dataclass
class ServiceConfig:
    """Tunables of one service instance (all have sensible defaults).

    ``port=0`` binds an ephemeral port — read the actual one from
    :attr:`SolveService.address` (the CLI prints it on startup).
    """

    host: str = "127.0.0.1"
    port: int = 0
    #: Bound on jobs waiting for a worker; excess requests get ``queue-full``.
    max_pending: int = 256
    #: Concurrent solves (dispatcher tasks and executor workers).
    workers: int = 2
    #: Use worker processes for plain solves (threads are the fallback).
    prefer_processes: bool = True
    #: Disk tier of the shared result cache; ``None`` keeps it memory-only.
    cache_dir: Optional[Union[str, Path]] = None
    #: ``False`` disables the result cache entirely (cold-path benchmarking).
    enable_cache: bool = True
    memory_cache_entries: int = 1024
    #: Disk-size cap handed to :class:`~repro.api.cache.ResultCache`.
    max_disk_bytes: Optional[int] = None
    #: Finished jobs kept around for ``poll`` after completion.
    retained_jobs: int = 1024
    #: Seconds to wait for in-flight responses to flush during shutdown.
    shutdown_grace_s: float = 5.0
    #: JSONL sink for this node's spans; ``None`` keeps them in the ring
    #: buffer only.  Worker processes inherit the path via the
    #: ``REPRO_TRACE_FILE`` environment variable (set on first use if
    #: unset), so solver-side spans land in the same file.
    trace_file: Optional[Union[str, Path]] = None


class SolveService(FrameServer):
    """A long-running solve daemon; see the module docstring for the shape.

    The listener, frame loop, admin ops and shutdown sequence live in
    :class:`~repro.service.frames.FrameServer`.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.config = config = config or ServiceConfig()
        super().__init__(config.host, config.port, config.shutdown_grace_s, config.trace_file)
        if self.config.trace_file is not None and not os.environ.get("REPRO_TRACE_FILE"):
            # Worker processes read this at import; setting it before the
            # pool forks lets solver-side spans reach the same sink.
            os.environ["REPRO_TRACE_FILE"] = str(self.config.trace_file)
        if cache is not None:
            self.cache: Optional[ResultCache] = cache
        elif self.config.enable_cache:
            self.cache = ResultCache(
                directory=self.config.cache_dir,
                max_memory_entries=self.config.memory_cache_entries,
                max_disk_bytes=self.config.max_disk_bytes,
                metrics=self.metrics,
            )
        else:
            self.cache = None
        self._queue = AdmissionQueue(
            max_pending=self.config.max_pending, metrics=self.metrics
        )
        self._pool = WorkerPool(
            max_workers=self.config.workers,
            prefer_processes=self.config.prefer_processes,
            metrics=self.metrics,
        )
        self._job_events = self.metrics.counter(
            "repro_jobs_total", "Job lifecycle events, by kind.", labels=("event",)
        )
        self._request_hist = self.metrics.histogram(
            "repro_request_latency_seconds",
            "Wall seconds from dispatch of a request to its final frame.",
            labels=("op",),
        )
        self._solve_hist = self.metrics.histogram(
            "repro_solve_seconds",
            "Wall seconds a job spent executing in the worker pool.",
            labels=("solver",),
        )
        self._dedup_wait_hist = self.metrics.histogram(
            "repro_dedup_wait_seconds",
            "Wall seconds a deduplicated request waited on the shared job.",
        )
        self._jobs: "OrderedDict[str, ServiceJob]" = OrderedDict()
        self._inflight: Dict[str, ServiceJob] = {}
        self._job_seq = itertools.count(1)
        #: Single thread for cache get/put: disk I/O, unpickling and replay
        #: validation must not stall the event loop, but ResultCache is not
        #: thread-safe — one dedicated thread gives both.  Its thread starts
        #: on first use, after the worker pool has forked.
        self._cache_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-cache"
        )
        self._dispatchers: List["asyncio.Task[None]"] = []

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Start the worker pool, bind the listener, start the dispatchers."""
        self._pool.start()  # before the loop spawns helper threads (fork safety)
        await super().start()
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"repro-service-dispatch-{i}")
            for i in range(self.config.workers)
        ]

    async def _drain_work(self, drain: bool) -> None:
        if not drain:
            self._queue.abort_pending()
        self._queue.close()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)

    def _release_resources(self) -> None:
        self._pool.shutdown()
        self._cache_executor.shutdown(wait=True)  # flush pending puts

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of every counter the service keeps."""
        cache_doc: Optional[Dict[str, Any]] = None
        if self.cache is not None:
            cache_doc = dict(self.cache.stats.as_dict())
            cache_doc["memory_entries"] = len(self.cache)
            cache_doc["directory"] = (
                None if self.cache.directory is None else str(self.cache.directory)
            )
            cache_doc["disk_bytes"] = self.cache.disk_bytes()
        jobs = self._job_events
        doc = super().stats()
        doc.update(
            jobs={
                "admitted": int(jobs.value(event="admitted")),
                "completed": int(jobs.value(event="completed")),
                "failed": int(jobs.value(event="failed")),
                "expired": self._queue.expired,
                "cache_answers": int(jobs.value(event="cache_answers")),
                "probe_hits": int(jobs.value(event="probe_hits")),
                "probe_misses": int(jobs.value(event="probe_misses")),
                "dedup_shared": int(jobs.value(event="dedup_shared")),
                "rejected_full": int(jobs.value(event="rejected_full")),
                "rejected_closing": int(jobs.value(event="rejected_closing")),
                "retained": len(self._jobs),
            },
            queue={"depth": self._queue.depth, "max_pending": self._queue.max_pending},
            pool={
                "mode": self._pool.mode,
                "workers": self._pool.max_workers,
                "fallback_reason": self._pool.fallback_reason,
            },
            cache=cache_doc,
        )
        return doc

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #

    async def _dispatch_request(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        started = time.perf_counter()
        try:
            await super()._dispatch_request(request, writer)
        finally:
            self._request_hist.observe(time.perf_counter() - started, op=str(request["op"]))

    async def _handle_poll(
        self, request: Dict[str, Any], request_id: str, writer: asyncio.StreamWriter
    ) -> None:
        job = self._jobs.get(str(request["job_id"]))
        if job is None:
            await self._try_send_error(
                writer, request_id, "unknown-job", f"no job {request['job_id']!r} (expired from retention?)"
            )
            return
        if request.get("wait") and not job.future.done():
            try:
                await asyncio.shield(job.future)
            except Exception:  # noqa: BLE001 — reported via job state below
                pass
        await write_frame(writer, self._status_response(request_id, job))

    def _status_response(self, request_id: str, job: ServiceJob) -> Dict[str, Any]:
        doc = make_response(
            "status",
            request_id,
            job_id=job.job_id,
            state=job.state.value,
            priority=job.priority,
            shared=job.shared,
        )
        if job.future.done() and not job.future.cancelled():
            error = job.future.exception()
            if error is None:
                doc["result"] = protocol.result_to_wire(job.future.result())
            else:
                doc["error"] = str(error)
                doc["code"] = _error_code(error)
        return doc

    async def _handle_solve(
        self, request: Dict[str, Any], request_id: str, writer: asyncio.StreamWriter
    ) -> None:
        # The request span: a child of the router's route span when the
        # frame carried a trace context, else a fresh trace — admission is
        # where trace ids are minted.
        with self.tracer.span(
            "server.solve_request",
            parent=TraceContext.from_wire(request.get("trace")),
            attrs={"solver": str(request.get("solver", "auto"))},
        ) as span:
            await self._admit_solve(request, request_id, writer, span)

    async def _admit_solve(
        self,
        request: Dict[str, Any],
        request_id: str,
        writer: asyncio.StreamWriter,
        span: Span,
    ) -> None:
        if self._closing:
            self._job_events.inc(event="rejected_closing")
            await self._try_send_error(
                writer, request_id, "shutting-down", "the service is draining and admits no new work"
            )
            return
        try:
            problem = protocol.problem_from_wire(request["problem"])
        except ProtocolError as exc:
            await self._try_send_error(writer, request_id, "bad-request", str(exc))
            return

        solver = str(request.get("solver", "auto"))
        options: Dict[str, Any] = dict(request.get("options", {}))
        stream = bool(request.get("stream", False))
        wait = bool(request.get("wait", True))
        priority = int(request.get("priority", 0))
        deadline_s = request.get("deadline_s")
        loop = asyncio.get_running_loop()
        deadline = None if deadline_s is None else loop.time() + float(deadline_s)

        digest = problem_digest(problem, solver=solver, options=options)
        cacheable = cacheable_options(options)

        # 0. a cache probe (cluster peer-fetch) never solves: answer from
        # the shared cache or refuse with `cache-miss`, costing at most one
        # cache lookup — that is what lets a router ask "do you have this?"
        # of every peer before paying for a recompute anywhere
        if bool(request.get("cache_only", False)):
            hit = None
            if self.cache is not None and cacheable:
                hit = await self._cache_get(problem, digest)
            if hit is None:
                self._job_events.inc(event="probe_misses")
                span.set_attr("outcome", "probe_miss")
                await self._try_send_error(
                    writer, request_id, "cache-miss", "the shared cache holds no entry for this digest"
                )
            else:
                self._job_events.inc(event="probe_hits")
                span.set_attr("outcome", "probe_hit")
                await self._send_result(writer, request_id, None, hit, cache_hit=True, span=span)
            return

        # 1. the shared cache answers repeats without touching the queue
        if self.cache is not None and cacheable:
            hit = await self._cache_get(problem, digest)
            if hit is not None:
                self._job_events.inc(event="cache_answers")
                span.set_attr("outcome", "cache_hit")
                if not wait:
                    # fire-and-forget keeps its job-id/poll contract even on
                    # the fast path: wrap the answer in an already-done job
                    job = self._finished_job(problem, solver, options, digest, hit)
                    await write_frame(
                        writer,
                        make_response("accepted", request_id, job_id=job.job_id, shared=False),
                    )
                    return
                await self._send_result(writer, request_id, None, hit, cache_hit=True, span=span)
                return

        # 2. an identical solve already in flight shares its future (plain
        # requests only — a streamed request needs its own event feed)
        if not stream and cacheable:
            shared = self._inflight.get(digest)
            if shared is not None:
                shared.shared += 1
                self._job_events.inc(event="dedup_shared")
                span.set_attr("outcome", "dedup_shared")
                span.set_attr("shared_job_id", shared.job_id)
                if wait:
                    dedup_started = time.perf_counter()
                    try:
                        await self._respond_after(writer, request_id, shared, span=span)
                    finally:
                        self._dedup_wait_hist.observe(
                            time.perf_counter() - dedup_started
                        )
                else:
                    await write_frame(
                        writer,
                        make_response(
                            "accepted", request_id, job_id=shared.job_id, shared=True
                        ),
                    )
                return

        # 3. fresh admission
        job = ServiceJob(
            job_id=f"job-{next(self._job_seq):06d}-{digest[:10]}",
            problem=problem,
            solver=solver,
            options=options,
            digest=digest,
            cacheable=cacheable,
            stream=stream,
            priority=priority,
            deadline=deadline,
            trace=span.context,
        )
        subscription = job.subscribe() if stream else None
        try:
            self._queue.offer(job)
        except QueueFull as exc:
            self._job_events.inc(event="rejected_full")
            await self._try_send_error(writer, request_id, "queue-full", str(exc))
            return
        except QueueClosed as exc:
            self._job_events.inc(event="rejected_closing")
            await self._try_send_error(writer, request_id, "shutting-down", str(exc))
            return
        self._job_events.inc(event="admitted")
        span.set_attr("outcome", "admitted")
        span.set_attr("job_id", job.job_id)
        self._remember_job(job)
        if cacheable and self._inflight.setdefault(digest, job) is job:
            # whichever way the job ends — solved, failed, expired at
            # dequeue, aborted by a non-drain shutdown — the digest must
            # leave the dedup table, or later identical requests would join
            # a dead job and inherit its stale error forever
            job.future.add_done_callback(
                lambda _f, d=digest, j=job: self._forget_inflight(d, j)
            )

        if not wait:
            await write_frame(
                writer, make_response("accepted", request_id, job_id=job.job_id, shared=False)
            )
            return
        if subscription is not None:
            while True:
                event = await subscription.get()
                if event is None:
                    break
                self._streamed.inc()
                await write_frame(
                    writer,
                    make_response("progress", request_id, job_id=job.job_id, **event),
                )
        await self._respond_after(writer, request_id, job, span=span)

    async def _respond_after(
        self,
        writer: asyncio.StreamWriter,
        request_id: str,
        job: ServiceJob,
        span: Span,
    ) -> None:
        try:
            result = await asyncio.shield(job.future)
        except Exception as exc:  # noqa: BLE001 — every failure maps to an error frame
            span.set_status("error")
            await self._try_send_error(writer, request_id, _error_code(exc), str(exc))
            return
        await self._send_result(writer, request_id, job, result, cache_hit=False, span=span)

    async def _send_result(
        self,
        writer: asyncio.StreamWriter,
        request_id: str,
        job: Optional[ServiceJob],
        result: SolveResult,
        cache_hit: bool,
        span: Span,
    ) -> None:
        doc = make_response(
            "result",
            request_id,
            job_id=None if job is None else job.job_id,
            cache_hit=cache_hit,
            result=protocol.result_to_wire(result),
        )
        doc["trace_id"] = span.context.trace_id
        await write_frame(writer, doc)

    async def _cache_get(self, problem: Any, digest: str) -> Optional[SolveResult]:
        """Cache lookup off the event loop (disk read + replay validation)."""
        assert self.cache is not None
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._cache_executor, self.cache.get, problem, digest
            )
        except RuntimeError:  # executor torn down mid-shutdown; do it inline
            return self.cache.get(problem, digest)

    async def _cache_put(self, digest: str, result: SolveResult) -> None:
        """Cache store off the event loop (pickle + write + disk pruning)."""
        assert self.cache is not None
        try:
            await asyncio.get_running_loop().run_in_executor(
                self._cache_executor, self.cache.put, digest, result
            )
        except RuntimeError:
            self.cache.put(digest, result)

    def _finished_job(
        self,
        problem: Any,
        solver: str,
        options: Dict[str, Any],
        digest: str,
        result: SolveResult,
    ) -> ServiceJob:
        """An already-done job wrapping a cache answer (pollable by id)."""
        now = asyncio.get_running_loop().time()
        job = ServiceJob(
            job_id=f"job-{next(self._job_seq):06d}-{digest[:10]}",
            problem=problem,
            solver=solver,
            options=options,
            digest=digest,
            state=JobState.DONE,
            enqueued_at=now,
            started_at=now,
            finished_at=now,
        )
        job.future.set_result(result)
        self._remember_job(job)
        return job

    def _forget_inflight(self, digest: str, job: ServiceJob) -> None:
        if self._inflight.get(digest) is job:
            del self._inflight[digest]

    def _remember_job(self, job: ServiceJob) -> None:
        self._jobs[job.job_id] = job
        while len(self._jobs) > self.config.retained_jobs:
            # evict the oldest *finished* job; never forget live ones
            for job_id, retained in self._jobs.items():
                if retained.done:
                    del self._jobs[job_id]
                    break
            else:
                break

    # ------------------------------------------------------------------ #
    # dispatchers
    # ------------------------------------------------------------------ #

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._queue.take()
            if job is None:
                return
            await self._execute(job)

    async def _execute(self, job: ServiceJob) -> None:
        loop = asyncio.get_running_loop()
        job.state = JobState.RUNNING
        job.started_at = loop.time()
        # Queue wait is only known once the job is picked up, so its span
        # is emitted retroactively (backdated by the measured wait).
        self.tracer.record(
            "queue_wait",
            max(0.0, job.started_at - job.enqueued_at),
            parent=job.trace,
            attrs={"job_id": job.job_id},
        )

        on_progress = None
        if job.subscribers:

            def _emit(cost: int, elapsed_s: float, _job: ServiceJob = job) -> None:
                # called from the solver thread; hop onto the loop to publish
                loop.call_soon_threadsafe(
                    _job.publish, {"cost": cost, "elapsed_s": elapsed_s}
                )

            on_progress = _emit

        solve_started = time.perf_counter()
        try:
            with self.tracer.span(
                "solve_exec",
                parent=job.trace,
                attrs={"job_id": job.job_id, "solver": job.solver},
            ) as solve_span:
                result = await self._pool.run(
                    job.problem,
                    job.solver,
                    job.options,
                    on_progress,
                    trace=solve_span.context,
                )
                solve_span.set_attr("cost", result.cost)
                solve_span.set_attr("solver_used", result.solver)
        except Exception as exc:  # noqa: BLE001 — _error_code types it for the client
            job.state = JobState.FAILED
            self._job_events.inc(event="failed")
            if not job.future.done():
                job.future.set_exception(exc)
        else:
            job.state = JobState.DONE
            self._job_events.inc(event="completed")
            if self.cache is not None and job.cacheable:
                await self._cache_put(job.digest, result)
            if not job.future.done():
                job.future.set_result(result)
        finally:
            self._solve_hist.observe(
                time.perf_counter() - solve_started, solver=job.solver
            )
            job.finished_at = loop.time()
            # also removed (synchronously, ahead of the future's done
            # callback) so a request landing this very tick cannot join a
            # finished job
            self._forget_inflight(job.digest, job)
            job.finish_stream()


def _error_code(error: BaseException) -> str:
    if isinstance(error, DeadlineExceeded):
        return "deadline"
    if isinstance(error, SolverError):
        return "solver-error"
    if isinstance(error, QueueClosed):
        return "shutting-down"
    return "internal"

