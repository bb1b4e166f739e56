"""Outside-in layer tracing for the traced benchmark run.

The benchmark never edits the program.  Instead, in the separate traced run
only, :func:`install` replaces each layer's *public* entry point with a thin
wrapper that records a span (name, start, end, parent, instance id) in
memory, and :func:`uninstall` puts the originals back.  The timed runs never
import this module's wrappers, so their numbers carry no tracing cost; the
ratio of traced to untraced wall time is reported as
``trace.overhead_ratio``.

Wrapped entry points (all looked up by their public names):

* ``repro.api.dispatch.best_lower_bound`` and ``refine_schedule`` — the names
  the solve facade calls;
* ``repro.solvers.exhaustive.root_lower_bound``;
* ``RBPSchedule``/``PRBPSchedule`` ``validate`` and ``stats`` (engine replay);
* every registered solver callable, re-registered through
  ``unregister_solver``/``register_solver`` with the same capability tags;
* ``repro.solvers.anytime.replay_io_cost`` (the schedule-IR kernel the
  refiner scores candidates with);
* ``repro.corpus.features.extract_features`` and ``TelemetryLog.record``
  (per-solve telemetry);
* ``repro.service.protocol`` codec functions, on the client side of the
  service workload.

A span's self time is its duration minus the union of its children's
intervals; a layer's time is the sum of its spans' self times, so nested
calls are never counted twice.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)
_INSTANCE: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "perfbench_instance", default=None
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: Optional[str]


class Tracer:
    """In-memory span store plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> Tuple[Span, contextvars.Token]:
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, _CURRENT.get(), _INSTANCE.get())
        self.spans.append(span)
        return span, _CURRENT.set(span.sid)

    @staticmethod
    def end(span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Optional[Callable[[Any, tuple], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``after(result, args)`` records counters on success."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span, token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span, token)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Sum of self time per span name."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[span.name] += (span.end - span.start) - covered
        return totals

    def total(self, name: str) -> float:
        """Summed wall duration of the spans called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "instance": s.instance}
                    )
                    + "\n"
                )


def set_instance(instance_id: Optional[str]) -> contextvars.Token:
    """Tag the spans that follow with ``instance_id``; undo with :func:`reset_instance`."""
    return _INSTANCE.set(instance_id)


def reset_instance(token: contextvars.Token) -> None:
    _INSTANCE.reset(token)


# --------------------------------------------------------------------------- #
# installing / removing the wrappers
# --------------------------------------------------------------------------- #


def _solver_layer(info: Any) -> str:
    if info.name == "exhaustive":
        return "exhaustive.search"
    if info.name == "greedy":
        return "greedy.solve"
    if info.families:
        return "structured.solve"
    return f"solver.{info.name}"


def install(tracer: Tracer, service_client: bool = False) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that undoes it."""
    from repro.api import dispatch, registry
    from repro.core.strategy import PRBPSchedule, RBPSchedule
    from repro.corpus import features
    from repro.obs.telemetry import TelemetryLog
    from repro.solvers import anytime, exhaustive

    undo: List[Callable[[], None]] = []
    counters = tracer.counters

    def patch(owner: Any, attr: str, name: str, after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(original, name, after))
        undo.append(lambda: setattr(owner, attr, original))

    def on_refine(result: Any, _args: tuple) -> None:
        trajectory = result[1]
        counters["anytime.steps"] += trajectory.steps
        counters["anytime.accepted"] += trajectory.accepted

    def on_replay(_result: Any, args: tuple) -> None:
        counters["replay.moves"] += len(args[0].moves)

    patch(dispatch, "best_lower_bound", "bounds.best_lower_bound")
    patch(dispatch, "refine_schedule", "anytime.refine", on_refine)
    patch(exhaustive, "root_lower_bound", "exhaustive.root_bound")
    patch(anytime, "replay_io_cost", "schedule_ir.kernel")
    patch(features, "extract_features", "telemetry.record")
    patch(TelemetryLog, "record", "telemetry.record")
    for cls in (RBPSchedule, PRBPSchedule):
        patch(cls, "validate", "replay.engine", on_replay)
        patch(cls, "stats", "replay.engine", on_replay)

    for info in registry.list_solvers():
        original_fn = info.fn
        layer = _solver_layer(info)

        def traced(problem: Any, *, _fn=original_fn, _layer=layer, **options: Any) -> Any:
            before = exhaustive.last_search_telemetry()
            span, token = tracer.begin(_layer)
            try:
                return _fn(problem, **options)
            finally:
                tracer.end(span, token)
                after = exhaustive.last_search_telemetry()
                if after is not None and after is not before:
                    counters["exhaustive.states_expanded"] += after.expanded
                    if not after.completed:
                        counters["exhaustive.budget_overruns"] += 1

        _reregister(registry, info, traced)
        undo.append(functools.partial(_reregister, registry, info, original_fn))

    if service_client:
        from repro.service import protocol

        def on_encode(frame: bytes, _args: tuple) -> None:
            counters["protocol.request_frames"] += 1
            counters["protocol.request_bytes"] += len(frame)

        def on_decode(_doc: Any, args: tuple) -> None:
            counters["protocol.response_frames"] += 1
            counters["protocol.response_bytes"] += len(args[0])

        patch(protocol, "encode_frame", "protocol.codec", on_encode)
        patch(protocol, "decode_frame", "protocol.codec", on_decode)
        patch(protocol, "problem_to_wire", "protocol.codec")
        patch(protocol, "result_from_wire", "protocol.codec")

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


def _reregister(registry: Any, info: Any, fn: Callable[..., Any]) -> None:
    registry.unregister_solver(info.name)
    registry.register_solver(
        info.name,
        games=info.games,
        exact=info.exact,
        families=info.families,
        description=info.description,
        min_r=info.min_r,
    )(fn)


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #


def layer_metrics(tracer: Tracer, solves: int) -> Dict[str, float]:
    """The per-layer numbers of one traced solve run (see ``BENCHMARK.json``)."""
    own = tracer.self_times()
    c = tracer.counters
    solve_total = tracer.total("solve")
    search_s = own.get("exhaustive.search", 0.0)
    replay_s = own.get("replay.engine", 0.0)
    steps = c.get("anytime.steps", 0.0)
    structured_path = (
        own.get("structured.solve", 0.0) + replay_s + own.get("bounds.best_lower_bound", 0.0)
    )
    heuristic_path = (
        own.get("anytime.refine", 0.0) + own.get("greedy.solve", 0.0)
        + own.get("schedule_ir.kernel", 0.0)
    )

    def share(part: float) -> float:
        return part / solve_total if solve_total > 0 else 0.0

    return {
        "trace.solve_s": solve_total,
        "dispatch.self_s": own.get("solve", 0.0),
        "bounds.best_lower_bound_s": own.get("bounds.best_lower_bound", 0.0),
        "bounds.best_lower_bound_calls": tracer.count("bounds.best_lower_bound"),
        "exhaustive.search_s": search_s,
        "exhaustive.states_expanded": c.get("exhaustive.states_expanded", 0.0),
        "exhaustive.states_per_s": (
            c.get("exhaustive.states_expanded", 0.0) / search_s if search_s > 0 else 0.0
        ),
        "exhaustive.budget_overruns": c.get("exhaustive.budget_overruns", 0.0),
        "exhaustive.root_bound_s": own.get("exhaustive.root_bound", 0.0),
        "exhaustive.root_bound_calls": tracer.count("exhaustive.root_bound"),
        "structured.solve_s": own.get("structured.solve", 0.0),
        "structured.calls": tracer.count("structured.solve"),
        "greedy.solve_s": own.get("greedy.solve", 0.0),
        "greedy.calls": tracer.count("greedy.solve"),
        "anytime.refine_s": own.get("anytime.refine", 0.0),
        "anytime.calls": tracer.count("anytime.refine"),
        "anytime.steps": steps,
        "anytime.accepted": c.get("anytime.accepted", 0.0),
        "anytime.accept_ratio": c.get("anytime.accepted", 0.0) / steps if steps else 0.0,
        "replay.engine_s": replay_s,
        "replay.calls_per_solve": tracer.count("replay.engine") / solves if solves else 0.0,
        "replay.moves": c.get("replay.moves", 0.0),
        "replay.moves_per_s": c.get("replay.moves", 0.0) / replay_s if replay_s > 0 else 0.0,
        "schedule_ir.kernel_s": own.get("schedule_ir.kernel", 0.0),
        "schedule_ir.kernel_calls": tracer.count("schedule_ir.kernel"),
        "telemetry.record_s": own.get("telemetry.record", 0.0),
        "share.exhaustive": share(search_s + own.get("exhaustive.root_bound", 0.0)),
        "share.structured_path": share(structured_path),
        "share.heuristic_path": share(heuristic_path),
    }
