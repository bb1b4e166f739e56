"""Span-based tracing with cross-node propagation.

A *trace* is a tree of spans sharing one ``trace_id``; spans carry a
``span_id`` and optional ``parent_id``.  Trace context is propagated two
ways:

- **In-process** via a :mod:`contextvars` variable, so nested
  ``tracer.span(...)`` blocks (and the solver portfolio in
  :mod:`repro.api.dispatch`) parent correctly without plumbing.
- **Cross-node** via an optional ``trace`` field on protocol solve
  frames (``{"trace_id": ..., "span_id": ...}``).

Finished spans land in a bounded in-memory ring buffer and, when a sink
path is configured, are appended as one JSON line each.  Each component
(service, router) owns its own :class:`Tracer` so multiple nodes hosted
in one process can write distinct node names; library code uses the
process-global tracer from :func:`get_tracer`, configurable via the
``REPRO_TRACE_FILE`` / ``REPRO_TRACE_NODE`` environment variables.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Mapping, Optional, Union

__all__ = [
    "TraceContext",
    "Span",
    "Tracer",
    "new_trace_id",
    "new_span_id",
    "current_trace",
    "set_current_trace",
    "reset_current_trace",
    "get_tracer",
    "configure_tracer",
]


def new_trace_id() -> str:
    """128-bit random trace id as lowercase hex."""

    return os.urandom(16).hex()


def new_span_id() -> str:
    """64-bit random span id as lowercase hex."""

    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """Identity of one span, as propagated to children and across nodes."""

    trace_id: str
    span_id: str

    def to_wire(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_wire(doc: object) -> Optional["TraceContext"]:
        """Parse a wire ``trace`` field; returns None on anything malformed."""

        if not isinstance(doc, Mapping):
            return None
        trace_id = doc.get("trace_id")
        span_id = doc.get("span_id")
        if (
            isinstance(trace_id, str)
            and isinstance(span_id, str)
            and 0 < len(trace_id) <= 64
            and 0 < len(span_id) <= 64
        ):
            return TraceContext(trace_id=trace_id, span_id=span_id)
        return None


_current_trace: contextvars.ContextVar[Optional[TraceContext]] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def current_trace() -> Optional[TraceContext]:
    """The ambient trace context for this task/thread, if any."""

    return _current_trace.get()


def set_current_trace(ctx: Optional[TraceContext]) -> contextvars.Token:
    """Set the ambient trace context; returns a token for reset."""

    return _current_trace.set(ctx)


def reset_current_trace(token: contextvars.Token) -> None:
    _current_trace.reset(token)


@dataclass
class Span:
    """One finished span.  ``start_s`` is wall-clock epoch seconds."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    node: str
    start_s: float
    duration_s: float
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "node": self.node,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.parent_id:
            doc["parent_id"] = self.parent_id
        if self.attrs:
            doc["attrs"] = self.attrs
        return doc


class _ActiveSpan:
    """Handle yielded by :meth:`Tracer.span` for attaching attributes."""

    __slots__ = ("context", "attrs", "status", "_start_perf", "_start_wall")

    def __init__(self, context: TraceContext, attrs: Optional[Dict[str, Any]]) -> None:
        self.context = context
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.status = "ok"
        self._start_perf = time.perf_counter()
        self._start_wall = time.time()

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def set_status(self, status: str) -> None:
        self.status = status


class Tracer:
    """Emits spans to a bounded ring buffer and an optional JSONL sink."""

    def __init__(
        self,
        node: str = "",
        ring_entries: int = 2048,
        sink: Optional[Union[str, Path]] = None,
    ) -> None:
        self.node = node
        self._ring: Deque[Span] = deque(maxlen=max(1, ring_entries))
        self._lock = threading.Lock()
        self._sink_path: Optional[Path] = Path(sink) if sink else None
        self._sink_handle: Optional[Any] = None
        self._sink_failed = False

    @property
    def sink_path(self) -> Optional[Path]:
        return self._sink_path

    # -- span creation -------------------------------------------------------

    @contextmanager
    def span(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        parent: Optional[TraceContext] = None,
        node: Optional[str] = None,
    ) -> Iterator[_ActiveSpan]:
        """Context manager measuring one span.

        Parent resolution order: explicit ``parent`` argument, else the
        ambient contextvar, else a fresh trace is started.  While the
        block runs, the ambient context is this span's context, so nested
        spans (including ones emitted by other tracers) chain correctly.
        """

        effective_parent = parent if parent is not None else _current_trace.get()
        if effective_parent is not None:
            ctx = TraceContext(effective_parent.trace_id, new_span_id())
        else:
            ctx = TraceContext(new_trace_id(), new_span_id())
        active = _ActiveSpan(ctx, attrs)
        token = _current_trace.set(ctx)
        try:
            yield active
        except BaseException:
            active.status = "error"
            raise
        finally:
            _current_trace.reset(token)
            self._emit(
                Span(
                    trace_id=ctx.trace_id,
                    span_id=ctx.span_id,
                    parent_id=effective_parent.span_id if effective_parent else None,
                    name=name,
                    node=node if node is not None else self.node,
                    start_s=active._start_wall,
                    duration_s=time.perf_counter() - active._start_perf,
                    status=active.status,
                    attrs=active.attrs,
                )
            )

    def record(
        self,
        name: str,
        duration_s: float,
        parent: Optional[TraceContext] = None,
        attrs: Optional[Dict[str, Any]] = None,
        node: Optional[str] = None,
        end_s: Optional[float] = None,
        status: str = "ok",
    ) -> TraceContext:
        """Emit a retroactive span (e.g. queue wait measured after the fact).

        The span ends at ``end_s`` (default: now) and is backdated by
        ``duration_s``.  Returns the emitted span's context.
        """

        effective_parent = parent if parent is not None else _current_trace.get()
        if effective_parent is not None:
            ctx = TraceContext(effective_parent.trace_id, new_span_id())
        else:
            ctx = TraceContext(new_trace_id(), new_span_id())
        end = end_s if end_s is not None else time.time()
        self._emit(
            Span(
                trace_id=ctx.trace_id,
                span_id=ctx.span_id,
                parent_id=effective_parent.span_id if effective_parent else None,
                name=name,
                node=node if node is not None else self.node,
                start_s=end - duration_s,
                duration_s=duration_s,
                status=status,
                attrs=dict(attrs) if attrs else {},
            )
        )
        return ctx

    # -- emission ------------------------------------------------------------

    def _emit(self, span: Span) -> None:
        with self._lock:
            self._ring.append(span)
            if self._sink_path is not None and not self._sink_failed:
                try:
                    if self._sink_handle is None:
                        self._sink_path.parent.mkdir(parents=True, exist_ok=True)
                        self._sink_handle = open(
                            self._sink_path, "a", encoding="utf-8"
                        )
                    self._sink_handle.write(
                        json.dumps(span.as_dict(), separators=(",", ":")) + "\n"
                    )
                    self._sink_handle.flush()
                except OSError:
                    # A broken sink must never take down request handling;
                    # stop trying rather than raising on every span.
                    self._sink_failed = True

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Most recent finished spans (oldest first), as dicts."""

        with self._lock:
            spans = list(self._ring)
        if limit is not None:
            spans = spans[-limit:]
        return [span.as_dict() for span in spans]

    def close(self) -> None:
        with self._lock:
            if self._sink_handle is not None:
                try:
                    self._sink_handle.close()
                except OSError:
                    pass
                self._sink_handle = None


_GLOBAL_TRACER: Optional[Tracer] = None
_GLOBAL_TRACER_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """Process-global tracer for library code without an owning component.

    First use reads ``REPRO_TRACE_FILE`` (JSONL sink path, optional) and
    ``REPRO_TRACE_NODE`` (node name, optional).  The environment lookup
    happens once; use :func:`configure_tracer` to replace it.
    """

    global _GLOBAL_TRACER
    with _GLOBAL_TRACER_LOCK:
        if _GLOBAL_TRACER is None:
            _GLOBAL_TRACER = Tracer(
                node=os.environ.get("REPRO_TRACE_NODE", ""),
                sink=os.environ.get("REPRO_TRACE_FILE") or None,
            )
        return _GLOBAL_TRACER


def configure_tracer(
    node: str = "",
    sink: Optional[Union[str, Path]] = None,
    ring_entries: int = 2048,
) -> Tracer:
    """Replace the process-global tracer (closing the previous sink)."""

    global _GLOBAL_TRACER
    with _GLOBAL_TRACER_LOCK:
        if _GLOBAL_TRACER is not None:
            _GLOBAL_TRACER.close()
        _GLOBAL_TRACER = Tracer(node=node, sink=sink, ring_entries=ring_entries)
        return _GLOBAL_TRACER
