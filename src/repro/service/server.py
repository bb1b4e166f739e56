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

Request handling is sequential per connection (a frame is answered before
the next is read); clients that want concurrency open several connections —
they are cheap, and the admission queue is the actual scheduling point.

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
from typing import Any, Dict, Optional, Tuple, Union

from ..api.cache import ResultCache, cacheable_options, problem_digest
from ..api.result import SolveResult
from ..core.exceptions import SolverError
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import TraceContext, Tracer
from . import protocol
from .protocol import ProtocolError, make_response, read_frame, write_frame
from .queue import (
    AdmissionQueue,
    DeadlineExceeded,
    JobState,
    QueueClosed,
    QueueFull,
    ServiceJob,
)
from .workers import WorkerPool

__all__ = ["ServiceConfig", "SolveService", "run_service"]


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
    #: Replay-validate disk cache entries before serving them.
    validate_cache: bool = True
    #: Finished jobs kept around for ``poll`` after completion.
    retained_jobs: int = 1024
    #: Seconds to wait for in-flight responses to flush during shutdown.
    shutdown_grace_s: float = 5.0
    #: JSONL sink for this node's spans; ``None`` keeps them in the ring
    #: buffer only.  Worker processes inherit the path via the
    #: ``REPRO_TRACE_FILE`` environment variable (set on first use if
    #: unset), so solver-side spans land in the same file.
    trace_file: Optional[Union[str, Path]] = None


class SolveService:
    """A long-running solve daemon; see the module docstring for the shape.

    Use as::

        service = SolveService(ServiceConfig(port=0))
        await service.start()
        host, port = service.address
        ...
        await service.shutdown()          # graceful drain
        await service.wait_closed()
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        #: Per-instance registry: several services in one process (tests,
        #: an in-process cluster) must not merge their counters.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(node="service", sink=self.config.trace_file)
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
                validate=self.config.validate_cache,
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
        self._started = time.monotonic()
        self._requests = self.metrics.counter(
            "repro_requests_total", "Requests received, by op.", labels=("op",)
        )
        self._job_events = self.metrics.counter(
            "repro_jobs_total", "Job lifecycle events, by kind.", labels=("event",)
        )
        self._connections_total = self.metrics.counter(
            "repro_connections_total", "Client connections accepted."
        )
        self._protocol_errors = self.metrics.counter(
            "repro_protocol_errors_total",
            "Frames refused as framing or schema errors.",
        )
        self._streamed = self.metrics.counter(
            "repro_streamed_events_total",
            "Anytime-progress frames pushed to streaming clients.",
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
        self._server: Optional[asyncio.Server] = None
        #: Single thread for cache get/put: disk I/O, unpickling and replay
        #: validation must not stall the event loop, but ResultCache is not
        #: thread-safe — one dedicated thread gives both.
        self._cache_executor: Optional[ThreadPoolExecutor] = None
        self._dispatchers: list = []
        self._connections: set = set()
        self._closing = False
        self._closed_event: Optional[asyncio.Event] = None
        self._shutdown_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listener and start the dispatcher tasks."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._closed_event = asyncio.Event()
        self._pool.start()  # before the loop spawns helper threads (fork safety)
        if self.cache is not None:
            self._cache_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-service-cache"
            )
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        host, port = self.address
        self.tracer.node = f"service:{host}:{port}"
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"repro-service-dispatch-{i}")
            for i in range(self.config.workers)
        ]

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` to the real port)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not listening")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return str(host), int(port)

    async def serve_forever(self) -> None:
        """Block until the service has fully shut down."""
        assert self._closed_event is not None, "call start() first"
        await self._closed_event.wait()

    async def wait_closed(self) -> None:
        """Block until a shutdown (initiated elsewhere) completes."""
        assert self._closed_event is not None, "call start() first"
        await self._closed_event.wait()

    def request_shutdown(self, drain: bool = True) -> None:
        """Schedule a shutdown from inside the event loop (used by the op)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.create_task(self.shutdown(drain=drain))

    async def shutdown(self, drain: bool = True) -> None:
        """Stop the service; with ``drain`` (default) finish all admitted work."""
        if self._closing:
            if self._closed_event is not None:
                await self._closed_event.wait()
            return
        self._closing = True

        if self._server is not None:
            self._server.close()
        if not drain:
            self._queue.abort_pending()
        self._queue.close()

        if self._dispatchers:
            await asyncio.gather(*self._dispatchers, return_exceptions=True)

        # Give connection handlers a grace period to flush final responses;
        # idle keep-alive connections are then cancelled (close semantics).
        if self._connections:
            _, pending = await asyncio.wait(
                set(self._connections), timeout=self.config.shutdown_grace_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)

        if self._server is not None:
            await self._server.wait_closed()
        self._pool.shutdown()
        if self._cache_executor is not None:
            self._cache_executor.shutdown(wait=True)  # flush pending puts
        self.tracer.close()
        if self._closed_event is not None:
            self._closed_event.set()

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
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "uptime_s": time.monotonic() - self._started,
            "closing": self._closing,
            "connections": {
                "active": len(self._connections),
                "total": int(self._connections_total.value()),
            },
            "requests": {key[0]: int(n) for key, n in self._requests.values().items()},
            "jobs": {
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
            "queue": {"depth": self._queue.depth, "max_pending": self._queue.max_pending},
            "pool": {
                "mode": self._pool.mode,
                "workers": self._pool.max_workers,
                "fallback_reason": self._pool.fallback_reason,
            },
            "cache": cache_doc,
            "streamed_events": int(self._streamed.value()),
            "protocol_errors": int(self._protocol_errors.value()),
            # merged histogram summaries (count/sum/mean/p50/p90/p99 per
            # histogram family)
            "latency": self.metrics.histogram_summaries(),
        }

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self._connections_total.inc()
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # shutdown grace expired; drop the connection
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                doc = await read_frame(reader)
            except ProtocolError as exc:
                # After a framing error the byte stream cannot be trusted;
                # tell the client why (best effort), then hang up.
                self._protocol_errors.inc()
                await self._try_send_error(writer, None, "protocol", str(exc))
                return
            if doc is None:
                return  # clean EOF
            try:
                request = protocol.validate_request(doc)
            except ProtocolError as exc:
                # The *frame* was sound, only the message was not — the
                # stream is still synchronized, so the connection survives.
                self._protocol_errors.inc()
                request_id = doc.get("id")
                await self._try_send_error(
                    writer,
                    request_id if isinstance(request_id, str) else None,
                    "bad-request",
                    str(exc),
                )
                continue
            try:
                await self._dispatch_request(request, writer)
            except (ConnectionError, asyncio.IncompleteReadError):
                return  # peer went away mid-response

    async def _try_send_error(
        self,
        writer: asyncio.StreamWriter,
        request_id: Optional[str],
        code: str,
        message: str,
    ) -> None:
        try:
            await write_frame(
                writer, make_response("error", request_id, code=code, error=message)
            )
        except (ConnectionError, ProtocolError, RuntimeError):
            pass

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #

    async def _dispatch_request(
        self, request: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        op = str(request["op"])
        self._requests.inc(op=op)
        request_id = str(request["id"])
        started = time.perf_counter()
        try:
            if op == "ping":
                await write_frame(
                    writer,
                    make_response(
                        "pong", request_id, protocol_version=protocol.PROTOCOL_VERSION
                    ),
                )
            elif op == "stats":
                await write_frame(writer, make_response("stats", request_id, stats=self.stats()))
            elif op == "metrics":
                await write_frame(
                    writer,
                    make_response(
                        "metrics",
                        request_id,
                        exposition=self.metrics.exposition(),
                        snapshot=self.metrics.snapshot(),
                    ),
                )
            elif op == "shutdown":
                drain = bool(request.get("drain", True))
                await write_frame(writer, make_response("ok", request_id, draining=drain))
                self.request_shutdown(drain=drain)
            elif op == "poll":
                await self._handle_poll(request, request_id, writer)
            elif op == "solve":
                # The request span: a child of the router's route span when
                # the frame carried a trace context, else a fresh trace —
                # admission is where trace ids are minted.
                parent = TraceContext.from_wire(request.get("trace"))
                with self.tracer.span(
                    "server.solve_request",
                    parent=parent,
                    attrs={"solver": str(request.get("solver", "auto"))},
                ) as span:
                    await self._handle_solve(request, request_id, writer, span)
        finally:
            self._request_hist.observe(time.perf_counter() - started, op=op)

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
        self,
        request: Dict[str, Any],
        request_id: str,
        writer: asyncio.StreamWriter,
        span: Any = None,
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
                if span is not None:
                    span.set_attr("outcome", "probe_miss")
                await self._try_send_error(
                    writer, request_id, "cache-miss", "the shared cache holds no entry for this digest"
                )
            else:
                self._job_events.inc(event="probe_hits")
                if span is not None:
                    span.set_attr("outcome", "probe_hit")
                await self._send_result(writer, request_id, None, hit, cache_hit=True, span=span)
            return

        # 1. the shared cache answers repeats without touching the queue
        if self.cache is not None and cacheable:
            hit = await self._cache_get(problem, digest)
            if hit is not None:
                self._job_events.inc(event="cache_answers")
                if span is not None:
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
                if span is not None:
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
            trace=span.context if span is not None else None,
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
        if span is not None:
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
        span: Any = None,
    ) -> None:
        try:
            result = await asyncio.shield(job.future)
        except Exception as exc:  # noqa: BLE001 — every failure maps to an error frame
            if span is not None:
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
        span: Any = None,
    ) -> None:
        doc = make_response(
            "result",
            request_id,
            job_id=None if job is None else job.job_id,
            cache_hit=cache_hit,
            result=protocol.result_to_wire(result),
        )
        if span is not None:
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
        except (SolverError, DeadlineExceeded) as exc:
            job.state = JobState.FAILED
            self._job_events.inc(event="failed")
            if not job.future.done():
                job.future.set_exception(exc)
        except Exception as exc:  # noqa: BLE001 — surfaced to the client as `internal`
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


async def run_service(config: Optional[ServiceConfig] = None) -> SolveService:
    """Start a service and return it (a convenience for embedding)."""
    service = SolveService(config)
    await service.start()
    return service
