"""The frame server shared by the solve node and the cluster router.

:class:`FrameServer` owns everything both roles do identically on the
wire: the TCP listener, the per-connection frame loop, typed error
replies, the ``ping``/``stats``/``metrics``/``shutdown`` ops and the
shutdown sequence.  :class:`~repro.service.server.SolveService` and
:class:`~repro.service.router.SolveRouter` subclass it and add only their
``solve``/``poll`` handling, their own counters, and the two shutdown
hooks (:meth:`FrameServer._drain_work`, :meth:`FrameServer._release_resources`).

Request handling is sequential per connection: a frame is answered before
the next is read.  A framing error gets a ``protocol`` error and a hangup
(the byte stream cannot be trusted after it); a sound frame carrying a
malformed message gets ``bad-request`` and the connection stays open.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple, Union

from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from . import protocol
from .protocol import ProtocolError, make_response, read_frame, write_frame

__all__ = ["ClientGone", "FrameServer"]


class ClientGone(Exception):
    """The *requesting* client vanished mid-response.

    Deliberately not a :class:`ConnectionError`: the router turns a
    ``ConnectionError`` from a backend into a failover, and a client that
    hung up is never a backend fault.
    """


class FrameServer:
    """Listener, frame loop, admin ops and shutdown of one protocol server.

    Subclasses set the three class attributes, implement
    :meth:`_handle_solve` and :meth:`_handle_poll`, and may override the
    shutdown hooks.  Use as::

        server = Subclass(...)
        await server.start()
        host, port = server.address
        ...
        await server.shutdown()          # graceful drain
        await server.wait_closed()
    """

    #: Role in the trace node name (``NODE:HOST:PORT``) and in error messages.
    node_name = "service"
    #: Prefix of the shared counters' metric names.
    metric_prefix = "repro"
    #: ``role`` reported in ``pong`` frames and :meth:`stats`; ``None`` omits it.
    role: Optional[str] = None

    def __init__(
        self,
        host: str,
        port: int,
        shutdown_grace_s: float,
        trace_file: Optional[Union[str, Path]],
    ) -> None:
        self._host = host
        self._port = port
        self._shutdown_grace_s = shutdown_grace_s
        #: Per-instance registry: several servers in one process (tests, an
        #: in-process cluster) must not merge their counters.
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(node=self.node_name, sink=trace_file)
        self._started = time.monotonic()
        prefix = self.metric_prefix
        self._requests = self.metrics.counter(
            f"{prefix}_requests_total", "Requests received, by op.", labels=("op",)
        )
        self._connections_total = self.metrics.counter(
            f"{prefix}_connections_total", "Client connections accepted."
        )
        self._protocol_errors = self.metrics.counter(
            f"{prefix}_protocol_errors_total",
            "Frames refused as framing or schema errors.",
        )
        self._streamed = self.metrics.counter(
            f"{prefix}_streamed_events_total",
            "Anytime-progress frames pushed to streaming clients.",
        )
        self._server: Optional[asyncio.Server] = None
        self._connections: Set["asyncio.Task[Any]"] = set()
        self._closing = False
        self._closed_event: Optional[asyncio.Event] = None
        self._shutdown_task: Optional["asyncio.Task[None]"] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listener."""
        if self._server is not None:
            raise RuntimeError(f"{self.node_name} already started")
        self._closed_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, host=self._host, port=self._port
        )
        host, port = self.address
        self.tracer.node = f"{self.node_name}:{host}:{port}"

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` to the real port)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError(f"{self.node_name} is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return str(host), int(port)

    async def wait_closed(self) -> None:
        """Block until a shutdown completes."""
        assert self._closed_event is not None, "call start() first"
        await self._closed_event.wait()

    def request_shutdown(self, drain: bool = True) -> None:
        """Schedule a shutdown from inside the event loop (used by the op)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.create_task(self.shutdown(drain=drain))

    async def shutdown(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` (default) finish all admitted work."""
        if self._closing:
            if self._closed_event is not None:
                await self._closed_event.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
        await self._drain_work(drain)

        # Give connection handlers a grace period to flush final responses;
        # idle keep-alive connections are then cancelled (close semantics).
        current = asyncio.current_task()
        handlers = {task for task in self._connections if task is not current}
        if handlers:
            _, pending = await asyncio.wait(handlers, timeout=self._shutdown_grace_s)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)

        if self._server is not None:
            await self._server.wait_closed()
        self._release_resources()
        self.tracer.close()
        if self._closed_event is not None:
            self._closed_event.set()

    async def _drain_work(self, drain: bool) -> None:
        """Stop admitting and settle admitted work (before the grace period)."""

    def _release_resources(self) -> None:
        """Free what the server holds once every connection has closed."""

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """The keys every role reports; subclasses add their own."""
        doc: Dict[str, Any] = {} if self.role is None else {"role": self.role}
        doc.update(
            protocol_version=protocol.PROTOCOL_VERSION,
            uptime_s=time.monotonic() - self._started,
            closing=self._closing,
            connections={
                "active": len(self._connections),
                "total": int(self._connections_total.value()),
            },
            requests={key[0]: int(n) for key, n in self._requests.values().items()},
            streamed_events=int(self._streamed.value()),
            protocol_errors=int(self._protocol_errors.value()),
            # merged histogram summaries (count/sum/mean/p50/p90/p99 per
            # histogram family)
            latency=self.metrics.histogram_summaries(),
        )
        return doc

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
            except (ConnectionError, asyncio.IncompleteReadError, ClientGone):
                return  # client went away mid-response

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
        if op == "ping":
            role = {} if self.role is None else {"role": self.role}
            await write_frame(
                writer,
                make_response(
                    "pong", request_id, protocol_version=protocol.PROTOCOL_VERSION, **role
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
            await self._handle_solve(request, request_id, writer)

    async def _handle_solve(
        self, request: Dict[str, Any], request_id: str, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError

    async def _handle_poll(
        self, request: Dict[str, Any], request_id: str, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError
