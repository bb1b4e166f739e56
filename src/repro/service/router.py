"""The cluster front node: digest-routed request router over solve backends.

One :class:`SolveRouter` turns N independent :class:`~repro.service.SolveService`
nodes into a sharded cluster while speaking the exact same wire protocol a
single node does — clients cannot tell a router from a server::

    client ──frame──▶ SolveRouter ──[rate limit · backpressure]──┐
                          │ hot LRU hit?  answer immediately     │
                          │                                      ▼
                          │            consistent-hash ring (problem_digest)
                          │                                      │
                          │   probe primary ──miss──▶ probe peers (peer fetch)
                          │                                      │
                          └──────── full solve ──▶ primary backend
                                        │ backend dead? mark down, re-dispatch
                                        ▼ to the next node on the ring
                                  result frame (relayed verbatim + `backend`)

Routing is **consistent hashing** by the PR 3 ``problem_digest``: each
backend owns ``ring_replicas`` pseudo-random points on a 64-bit ring and a
request goes to the first point at or after its digest.  Equal digests
therefore always land on the same backend (its memory LRU and disk tier
stay hot for exactly its shard), and adding or removing one backend moves
only ``~1/N`` of the key space.

The cache is **tiered**.  Tier 0 is the router's own in-memory hot LRU of
relayed *wire* results — a hit costs no backend round trip at all.  Tier 1
is the primary backend's two-level :class:`~repro.api.cache.ResultCache`.
Tier 2 is **peer fetch**: before any backend recomputes, the router probes
the remaining nodes with a ``cache_only`` request —
a peer that solved this digest under an older ring layout, or sharing a
disk tier, answers from its cache and the recompute is avoided entirely.

Admission is **defended**: a per-client token bucket
(:class:`~repro.service.queue.ClientRateLimiter`, keyed by the request's
``client_id`` or the peer address) sheds abusive clients with
``rate-limited``, and a router-wide in-flight bound sheds overload with
``overloaded`` — both *before* any backend work, layering on the bounded
admission queue each backend already runs (whose ``queue-full`` rejections
the router relays and counts).  Shed requests are always answered with a
typed error, never silently dropped.

Failover is safe because solves are **idempotent**: the digest pins the
problem content, solver and options, and results are replay-validated, so
re-dispatching a request whose backend died mid-flight yields a
bit-identical answer from any other node.  A backend that fails
``failure_threshold`` consecutive interactions is marked down for
``cooldown_s`` and the ring walks past it; typed application errors
(``solver-error``, ``deadline``, ``queue-full``) are relayed to the client
and never trigger failover — only transport failures and draining backends
do.

The listener, the per-connection frame loop, the admin ops and the
shutdown sequence are :class:`~repro.service.frames.FrameServer`'s, shared
with the solve node.  Everything is event-loop-thread only, like the
server it fronts.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..api.cache import cacheable_options, problem_digest
from ..obs.tracing import TraceContext
from . import protocol
from .frames import ClientGone, FrameServer
from .protocol import ProtocolError, make_response, read_frame, write_frame
from .queue import ClientRateLimiter

__all__ = [
    "BackendSpec",
    "HashRing",
    "RouterConfig",
    "SolveRouter",
]


# --------------------------------------------------------------------------- #
# consistent hashing
# --------------------------------------------------------------------------- #


class HashRing:
    """Consistent-hash ring over backend names.

    Each name owns ``replicas`` points at ``sha256(name + "#" + i)`` on a
    64-bit ring; a key routes to the owner of the first point at or after
    the key's own sha256-derived position (wrapping).  :meth:`preference`
    returns *every* name in ring order from that point — the failover
    order — so the primary is ``preference(key)[0]`` and a dead primary's
    traffic spills to the next distinct owner clockwise, not to one fixed
    buddy node.
    """

    def __init__(self, names: Sequence[str], replicas: int = 64) -> None:
        if not names:
            raise ValueError("a hash ring needs at least one backend name")
        if len(set(names)) != len(names):
            raise ValueError(f"backend names must be unique, got {list(names)!r}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.names: Tuple[str, ...] = tuple(names)
        self.replicas = replicas
        points: List[Tuple[int, str]] = []
        for name in self.names:
            for index in range(replicas):
                token = hashlib.sha256(f"{name}#{index}".encode("utf-8")).digest()
                points.append((int.from_bytes(token[:8], "big"), name))
        points.sort()
        self._points = points
        self._positions = [position for position, _ in points]

    @staticmethod
    def key_position(digest: str) -> int:
        """Map a hex content digest onto the 64-bit ring."""
        token = hashlib.sha256(digest.encode("ascii")).digest()
        return int.from_bytes(token[:8], "big")

    def route(self, digest: str) -> str:
        """The primary owner of ``digest``."""
        return self.preference(digest)[0]

    def preference(self, digest: str) -> List[str]:
        """All names, deduplicated, in ring order starting at ``digest``."""
        start = bisect_left(self._positions, self.key_position(digest))
        seen: List[str] = []
        for offset in range(len(self._points)):
            _, name = self._points[(start + offset) % len(self._points)]
            if name not in seen:
                seen.append(name)
                if len(seen) == len(self.names):
                    break
        return seen


# --------------------------------------------------------------------------- #
# configuration & backend bookkeeping
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class BackendSpec:
    """Address of one backend solve node."""

    host: str
    port: int

    @property
    def name(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass
class RouterConfig:
    """Tunables of one router instance.

    ``port=0`` binds an ephemeral port (read :attr:`SolveRouter.address`).
    """

    backends: Tuple[BackendSpec, ...] = ()
    host: str = "127.0.0.1"
    port: int = 0
    #: Virtual nodes per backend on the consistent-hash ring.
    ring_replicas: int = 64
    #: Entries in the router's hot LRU of relayed wire results (tier 0).
    hot_cache_entries: int = 2048
    #: Router-wide bound on concurrently routed requests; excess requests
    #: are shed with ``overloaded`` (open-loop backpressure).
    max_inflight: int = 512
    #: Per-client token-bucket refill rate (requests/s); ``None`` = unlimited.
    rate_limit_per_s: Optional[float] = None
    #: Bucket capacity; ``None`` = one second's worth of tokens.
    rate_limit_burst: Optional[float] = None
    #: Distinct client identities tracked before LRU turnover.
    rate_limit_clients: int = 4096
    #: Probe peer caches before letting the primary recompute.
    peer_probe: bool = True
    #: Per-probe timeout; probes are cheap, so a slow peer is a dead peer.
    probe_timeout_s: float = 5.0
    #: Optional per-attempt cap on a relayed solve; ``None`` trusts the
    #: client's own ``deadline_s`` and the backend's admission queue.
    request_timeout_s: Optional[float] = None
    #: Consecutive transport failures before a backend is marked down.
    failure_threshold: int = 2
    #: Seconds a down backend sits out before the ring retries it.
    cooldown_s: float = 2.0
    #: Seconds to wait for in-flight relays to finish during shutdown.
    shutdown_grace_s: float = 5.0
    #: JSONL span-sink path for this router's tracer; ``None`` keeps
    #: finished spans in the in-memory ring only.
    trace_file: Optional[Union[str, Path]] = None


class _Backend:
    """Mutable per-backend state: connection pool, health, counters."""

    def __init__(self, spec: BackendSpec) -> None:
        self.spec = spec
        self.idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.inflight = 0
        self.consecutive_failures = 0
        self.down_until = 0.0
        # counters
        self.dispatched = 0
        self.probes = 0
        self.probe_hits = 0
        self.failures = 0
        self.marked_down = 0

    @property
    def name(self) -> str:
        return self.spec.name

    def alive(self, now: float) -> bool:
        return now >= self.down_until

    def snapshot(self, now: float) -> Dict[str, Any]:
        return {
            "name": self.name,
            "host": self.spec.host,
            "port": self.spec.port,
            "alive": self.alive(now),
            "inflight": self.inflight,
            "idle_connections": len(self.idle),
            "dispatched": self.dispatched,
            "probes": self.probes,
            "probe_hits": self.probe_hits,
            "failures": self.failures,
            "marked_down": self.marked_down,
        }


class _BackendFailure(Exception):
    """A transport-level failure talking to one backend (failover-worthy)."""


class _RelayedError(Exception):
    """A typed error frame from a backend, to be relayed to the client."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------------------- #
# the router
# --------------------------------------------------------------------------- #


class SolveRouter(FrameServer):
    """Front node routing solve traffic across backend solve services.

    The listener, frame loop, admin ops and shutdown sequence live in
    :class:`~repro.service.frames.FrameServer`.  Use as::

        router = SolveRouter(RouterConfig(backends=(BackendSpec("127.0.0.1", 7421),)))
        await router.start()
        host, port = router.address
        ...
        await router.shutdown()
    """

    node_name = "router"
    metric_prefix = "repro_router"
    role = "router"

    def __init__(self, config: RouterConfig) -> None:
        if not config.backends:
            raise ValueError("a router needs at least one backend")
        super().__init__(config.host, config.port, config.shutdown_grace_s, config.trace_file)
        self.config = config
        self._backends: "OrderedDict[str, _Backend]" = OrderedDict(
            (spec.name, _Backend(spec)) for spec in config.backends
        )
        self._ring = HashRing(tuple(self._backends), replicas=config.ring_replicas)
        self._limiter = ClientRateLimiter(
            config.rate_limit_per_s,
            config.rate_limit_burst,
            max_clients=config.rate_limit_clients,
        )
        #: Tier-0 hot cache: digest -> (wire result doc, serving backend).
        self._hot: "OrderedDict[str, Tuple[Dict[str, Any], str]]" = OrderedDict()
        self._events = self.metrics.counter(
            "repro_router_events_total",
            "Routing-path events by kind (tier hits, sheds, failovers).",
            labels=("event",),
        )
        self._tier_hist = self.metrics.histogram(
            "repro_router_tier_seconds",
            "Wall seconds from admission to answer, by the tier that served it.",
            labels=("tier",),
        )
        self._inflight_gauge = self.metrics.gauge(
            "repro_router_inflight", "Solve requests currently being routed."
        )
        self._inflight = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def _drain_work(self, drain: bool) -> None:
        if not drain:
            # no grace for in-flight relays: cancel every handler now
            current = asyncio.current_task()
            for task in self._connections:
                if task is not current:
                    task.cancel()

    def _release_resources(self) -> None:
        for backend in self._backends.values():
            while backend.idle:
                _, writer = backend.idle.pop()
                writer.close()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """A JSON-safe snapshot of the router's counters and backend health."""
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:
            now = 0.0
        events = self._events
        doc = super().stats()
        doc.update(
            routing={
                "routed": int(events.value(event="routed")),
                "hot_hits": int(events.value(event="hot_hits")),
                "primary_probe_hits": int(events.value(event="primary_probe_hits")),
                "peer_fetch_hits": int(events.value(event="peer_fetch_hits")),
                "dispatched": int(events.value(event="dispatched")),
                "completed": int(events.value(event="completed")),
                "failovers": int(events.value(event="failovers")),
                "no_backend": int(events.value(event="no_backend")),
                "relayed_errors": int(events.value(event="relayed_errors")),
                "relayed_queue_full": int(events.value(event="relayed_queue_full")),
            },
            shed={
                "rate_limited": int(events.value(event="shed_rate_limited")),
                "overloaded": int(events.value(event="shed_overloaded")),
            },
            hot_cache={
                "entries": len(self._hot),
                "max_entries": self.config.hot_cache_entries,
            },
            rate_limit={
                "per_s": self.config.rate_limit_per_s,
                "burst": self._limiter.burst if self._limiter.rate is not None else None,
                "tracked_clients": len(self._limiter),
                "rejected": self._limiter.rejected,
            },
            inflight=self._inflight,
            max_inflight=self.config.max_inflight,
            backends=[backend.snapshot(now) for backend in self._backends.values()],
        )
        return doc

    # ------------------------------------------------------------------ #
    # solve routing
    # ------------------------------------------------------------------ #

    async def _handle_solve(
        self, request: Dict[str, Any], request_id: str, writer: asyncio.StreamWriter
    ) -> None:
        if self._closing:
            await self._try_send_error(
                writer, request_id, "shutting-down", "the router is draining and admits no new work"
            )
            return

        # --- admission defence, cheapest checks first ------------------- #
        identity = request.get("client_id")
        if not isinstance(identity, str) or not identity:
            peer = writer.get_extra_info("peername")
            identity = f"peer:{peer[0]}" if isinstance(peer, tuple) and peer else "peer:unknown"
        if not self._limiter.allow(identity):
            self._events.inc(event="shed_rate_limited")
            await self._try_send_error(
                writer,
                request_id,
                "rate-limited",
                f"client {identity!r} is over its {self._limiter.rate}/s token bucket",
            )
            return
        if self._inflight >= self.config.max_inflight:
            self._events.inc(event="shed_overloaded")
            await self._try_send_error(
                writer,
                request_id,
                "overloaded",
                f"router is at its in-flight bound ({self.config.max_inflight}); back off and retry",
            )
            return

        # --- decode & key ----------------------------------------------- #
        # Decoding validates the DAG content digest at the edge: garbage is
        # refused here, before it can occupy any backend's admission queue.
        try:
            problem = protocol.problem_from_wire(request["problem"])
        except ProtocolError as exc:
            await self._try_send_error(writer, request_id, "bad-request", str(exc))
            return
        solver = str(request.get("solver", "auto"))
        options: Dict[str, Any] = dict(request.get("options", {}))
        digest = problem_digest(problem, solver=solver, options=options)
        cacheable = cacheable_options(options)

        self._events.inc(event="routed")
        self._inflight += 1
        self._inflight_gauge.set(float(self._inflight))
        # The route span is the router's root for this request (or a child of
        # the client's own span when the request carried a ``trace`` field);
        # its context is stamped onto the forwarded request so probe and
        # relay spans on the backends stitch into one cross-node trace.
        with self.tracer.span(
            "router.route",
            parent=TraceContext.from_wire(request.get("trace")),
            attrs={"solver": solver, "digest": digest},
        ) as span:
            forward = dict(request)
            forward["trace"] = span.context.to_wire()
            try:
                await self._route_solve(
                    forward,
                    request_id,
                    writer,
                    digest,
                    cacheable,
                    stream=bool(request.get("stream", False)),
                    wait=bool(request.get("wait", True)),
                    cache_only=bool(request.get("cache_only", False)),
                    span=span,
                )
            finally:
                self._inflight -= 1
                self._inflight_gauge.set(float(self._inflight))

    async def _route_solve(
        self,
        request: Dict[str, Any],
        request_id: str,
        writer: asyncio.StreamWriter,
        digest: str,
        cacheable: bool,
        *,
        stream: bool,
        wait: bool,
        cache_only: bool,
        span: Optional[Any] = None,
    ) -> None:
        started = time.perf_counter()
        # --- tier 0: the router's own hot LRU --------------------------- #
        if cacheable and wait:
            hot = self._hot_get(digest)
            if hot is not None:
                doc, backend_name = hot
                self._events.inc(event="hot_hits")
                self._observe_tier("hot", started, span, backend_name)
                await write_frame(
                    writer,
                    make_response(
                        "result",
                        request_id,
                        job_id=None,
                        cache_hit=True,
                        backend=backend_name,
                        router_cache="hot",
                        result=doc,
                    ),
                )
                return

        preference = self._ring.preference(digest)
        now = asyncio.get_running_loop().time

        # --- tiers 1–2: primary cache, then peer fetch ------------------ #
        # (a probe costs one cache lookup; a recompute costs a solve — so
        # for cacheable waited requests every alive node is asked first)
        if cacheable and wait:
            probe_order = preference if self.config.peer_probe else preference[:1]
            for rank, name in enumerate(probe_order):
                backend = self._backends[name]
                if not backend.alive(now()):
                    continue
                try:
                    doc = await self._probe_backend(backend, request)
                except _BackendFailure:
                    self._mark_failure(backend)
                    continue
                self._mark_alive(backend)
                if doc is None:
                    continue  # cache-miss: try the next tier
                if rank == 0:
                    self._events.inc(event="primary_probe_hits")
                    self._observe_tier("probe_primary", started, span, name)
                else:
                    self._events.inc(event="peer_fetch_hits")
                    self._observe_tier("probe_peer", started, span, name)
                self._hot_put(digest, doc, name)
                await write_frame(
                    writer,
                    make_response(
                        "result",
                        request_id,
                        job_id=None,
                        cache_hit=True,
                        backend=name,
                        router_cache="peer" if rank else "primary",
                        result=doc,
                    ),
                )
                return
            if cache_only:
                await self._try_send_error(
                    writer, request_id, "cache-miss", "no cluster tier holds this digest"
                )
                return

        # --- full dispatch with failover -------------------------------- #
        attempts = 0
        for name in preference:
            backend = self._backends[name]
            if not backend.alive(now()):
                continue
            attempts += 1
            if attempts > 1:
                self._events.inc(event="failovers")
            try:
                await self._relay_solve(
                    backend, request, request_id, writer, digest, cacheable, stream
                )
            except _BackendFailure:
                # The relay sends nothing to the client before the terminal
                # frame except progress events — which a re-run regenerates —
                # so re-dispatching is safe: solves are idempotent, pinned by
                # the content digest and replay-validated client-side.
                self._mark_failure(backend)
                continue
            except _RelayedError as exc:
                if exc.code == "shutting-down":
                    # a draining backend refuses new work but is not broken;
                    # its shard simply spills to the next ring node
                    continue
                if exc.code == "queue-full":
                    self._events.inc(event="relayed_queue_full")
                else:
                    self._events.inc(event="relayed_errors")
                await self._try_send_error(writer, request_id, exc.code, str(exc))
                return
            self._observe_tier(
                "failover" if attempts > 1 else "dispatch", started, span, name
            )
            return
        self._events.inc(event="no_backend")
        await self._try_send_error(
            writer,
            request_id,
            "no-backend",
            f"all {len(preference)} backend(s) for this digest are down or draining",
        )

    def _observe_tier(
        self, tier: str, started: float, span: Optional[Any], backend: Optional[str]
    ) -> None:
        """Record which tier answered and how long admission-to-answer took."""
        self._tier_hist.observe(time.perf_counter() - started, tier=tier)
        if span is not None:
            span.set_attr("tier", tier)
            if backend is not None:
                span.set_attr("backend", backend)

    async def _relay_solve(
        self,
        backend: _Backend,
        request: Dict[str, Any],
        request_id: str,
        writer: asyncio.StreamWriter,
        digest: str,
        cacheable: bool,
        stream: bool,
    ) -> None:
        """Forward one solve to ``backend``, streaming frames back verbatim.

        Raises :class:`_BackendFailure` on transport problems (failover) and
        :class:`_RelayedError` on typed error frames (relayed, no failover).
        """
        backend.dispatched += 1
        self._events.inc(event="dispatched")

        async def forward_progress(doc: Dict[str, Any]) -> None:
            self._streamed.inc()
            doc["backend"] = backend.name
            try:
                await write_frame(writer, doc)
            except (ConnectionError, ProtocolError, RuntimeError) as exc:
                raise ClientGone(str(exc)) from exc

        backend.inflight += 1
        try:
            try:
                doc = await self._backend_roundtrip(
                    backend,
                    request,
                    timeout=self.config.request_timeout_s,
                    on_progress=forward_progress if stream else None,
                )
            except (ConnectionError, asyncio.IncompleteReadError, ProtocolError) as exc:
                raise _BackendFailure(str(exc)) from exc
        finally:
            backend.inflight -= 1

        op = doc.get("op")
        if op == "error":
            raise _RelayedError(str(doc.get("code", "internal")), str(doc.get("error", "")))
        if op not in ("result", "accepted"):
            raise _BackendFailure(f"unexpected backend frame op {op!r}")
        self._mark_alive(backend)
        self._events.inc(event="completed")
        doc["backend"] = backend.name
        if op == "accepted" and isinstance(doc.get("job_id"), str):
            # Stamp the serving backend into the job id so a later poll on
            # this router can find its way back to the right node.
            doc["job_id"] = f"{backend.name}/{doc['job_id']}"
        if op == "result" and cacheable and isinstance(doc.get("result"), dict):
            self._hot_put(digest, doc["result"], backend.name)
        await write_frame(writer, doc)

    async def _handle_poll(
        self, request: Dict[str, Any], request_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """Route a poll by the backend prefix the router stamped on the job id."""
        job_id = str(request["job_id"])
        backend_name, _, inner = job_id.partition("/")
        backend = self._backends.get(backend_name)
        if backend is None or not inner:
            await self._try_send_error(
                writer,
                request_id,
                "unknown-job",
                f"job id {job_id!r} does not name a backend of this router",
            )
            return
        forward = dict(request)
        forward["job_id"] = inner
        try:
            doc = await self._backend_roundtrip(backend, forward, timeout=None)
        except (ConnectionError, asyncio.IncompleteReadError, ProtocolError) as exc:
            self._mark_failure(backend)
            await self._try_send_error(
                writer, request_id, "no-backend", f"backend {backend.name} is unreachable: {exc}"
            )
            return
        self._mark_alive(backend)
        if isinstance(doc.get("job_id"), str):
            doc["job_id"] = f"{backend.name}/{doc['job_id']}"
        doc["backend"] = backend.name
        await write_frame(writer, doc)

    # ------------------------------------------------------------------ #
    # backend plumbing
    # ------------------------------------------------------------------ #

    async def _probe_backend(
        self, backend: _Backend, request: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """``cache_only`` round trip: the wire result doc, or ``None`` on miss."""
        backend.probes += 1
        probe = dict(request)
        probe["cache_only"] = True
        probe["stream"] = False
        probe["wait"] = True
        try:
            doc = await self._backend_roundtrip(
                backend, probe, timeout=self.config.probe_timeout_s
            )
        except (ConnectionError, asyncio.IncompleteReadError, ProtocolError) as exc:
            raise _BackendFailure(str(exc)) from exc
        op = doc.get("op")
        if op == "result" and isinstance(doc.get("result"), dict):
            backend.probe_hits += 1
            return dict(doc["result"])
        if op == "error":
            code = str(doc.get("code", "internal"))
            if code == "cache-miss":
                return None
            raise _BackendFailure(f"probe refused: [{code}] {doc.get('error', '')}")
        raise _BackendFailure(f"unexpected probe frame op {op!r}")

    async def _backend_roundtrip(
        self,
        backend: _Backend,
        request: Dict[str, Any],
        timeout: Optional[float],
        on_progress: Optional[Callable[[Dict[str, Any]], Awaitable[None]]] = None,
    ) -> Dict[str, Any]:
        """One request/terminal-response exchange on a pooled backend connection.

        Progress frames are handed to ``on_progress`` as they arrive (or
        silently dropped when no forwarder is given — a non-streaming relay
        never asked for them).  The connection returns to the pool only
        after the terminal frame was read; any abandonment — transport
        error, timeout, the client dying inside ``on_progress`` — closes
        it, because a half-read connection can never be reused.
        """
        reader, conn_writer = await self._acquire(backend)
        clean = False
        try:
            await asyncio.wait_for(write_frame(conn_writer, request), timeout=timeout)
            while True:
                doc = await asyncio.wait_for(read_frame(reader), timeout=timeout)
                if doc is None:
                    raise ConnectionError("backend closed the connection mid-request")
                if doc.get("op") == "progress":
                    if on_progress is not None:
                        await on_progress(doc)
                    continue
                clean = True
                return doc
        except asyncio.TimeoutError as exc:
            raise ConnectionError(f"backend {backend.name} timed out") from exc
        finally:
            if clean:
                self._release(backend, reader, conn_writer)
            else:
                conn_writer.close()

    async def _acquire(
        self, backend: _Backend
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        while backend.idle:
            reader, writer = backend.idle.pop()
            if writer.is_closing():
                writer.close()
                continue
            return reader, writer
        try:
            return await asyncio.open_connection(backend.spec.host, backend.spec.port)
        except OSError as exc:
            raise ConnectionError(f"cannot reach backend {backend.name}: {exc}") from exc

    def _release(
        self, backend: _Backend, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if writer.is_closing() or self._closing:
            writer.close()
            return
        backend.idle.append((reader, writer))

    def _mark_failure(self, backend: _Backend) -> None:
        backend.failures += 1
        backend.consecutive_failures += 1
        if backend.consecutive_failures >= self.config.failure_threshold:
            backend.down_until = asyncio.get_running_loop().time() + self.config.cooldown_s
            backend.marked_down += 1

    def _mark_alive(self, backend: _Backend) -> None:
        backend.consecutive_failures = 0
        backend.down_until = 0.0

    # ------------------------------------------------------------------ #
    # hot cache (tier 0)
    # ------------------------------------------------------------------ #

    def _hot_get(self, digest: str) -> Optional[Tuple[Dict[str, Any], str]]:
        entry = self._hot.get(digest)
        if entry is not None:
            self._hot.move_to_end(digest)
        return entry

    def _hot_put(self, digest: str, doc: Dict[str, Any], backend_name: str) -> None:
        if self.config.hot_cache_entries < 1:
            return
        self._hot[digest] = (doc, backend_name)
        self._hot.move_to_end(digest)
        while len(self._hot) > self.config.hot_cache_entries:
            self._hot.popitem(last=False)

