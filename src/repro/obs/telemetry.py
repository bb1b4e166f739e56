"""Per-solve telemetry records — the input for a learned solver portfolio.

When a sink is configured, every :func:`repro.api.dispatch.solve` call
appends one :class:`SolveTelemetry` record to it as a JSON line.  The
record describes the instance (digest plus the deterministic features
from :mod:`repro.corpus.features`), what was asked (requested solver,
scalar options), what happened (solver used, cost, bound gap, wall time,
states expanded, per-attempt portfolio timings), and — when a trace is
active — the ``trace_id`` linking the record to its spans.  Without a
sink no record is built.  The sink is configured via the
``REPRO_TELEMETRY_FILE`` environment variable so that process-pool solve
workers, which inherit the environment, append to the same file as their
parent.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .metrics import MetricsRegistry

__all__ = [
    "SolveTelemetry",
    "TelemetryLog",
    "get_telemetry_log",
    "configure_telemetry",
    "read_telemetry_file",
]


@dataclass(frozen=True)
class SolveTelemetry:
    """One solve, summarised for offline portfolio analysis."""

    digest: str
    solver_requested: str
    solver_used: str
    cost: int
    lower_bound: Optional[int]
    gap: Optional[int]
    wall_time_s: float
    states_expanded: Optional[int]
    options: Dict[str, Any] = field(default_factory=dict)
    features: Dict[str, Any] = field(default_factory=dict)
    attempts: List[Dict[str, Any]] = field(default_factory=list)
    trace_id: Optional[str] = None
    ts: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "digest": self.digest,
            "solver_requested": self.solver_requested,
            "solver_used": self.solver_used,
            "cost": self.cost,
            "lower_bound": self.lower_bound,
            "gap": self.gap,
            "wall_time_s": self.wall_time_s,
            "states_expanded": self.states_expanded,
            "options": self.options,
            "features": self.features,
            "attempts": self.attempts,
            "ts": self.ts,
        }
        if self.trace_id:
            doc["trace_id"] = self.trace_id
        return doc


class TelemetryLog:
    """Optional JSONL file sink for solve records.

    Lost records are counted in the log's own registry (``metrics``) as
    ``repro_telemetry_dropped_writes_total``; ``dropped_writes`` reads it.
    """

    def __init__(self, sink: Optional[Union[str, Path]] = None) -> None:
        self._lock = threading.Lock()
        self._sink_path: Optional[Path] = Path(sink) if sink else None
        self._sink_handle: Optional[Any] = None
        self._sink_failed = False
        self.metrics = MetricsRegistry()
        self._dropped = self.metrics.counter(
            "repro_telemetry_dropped_writes_total",
            "solve telemetry records lost before reaching the sink",
        )

    @property
    def dropped_writes(self) -> int:
        return int(self._dropped.value())

    @property
    def sink_path(self) -> Optional[Path]:
        return self._sink_path

    @property
    def sink_failed(self) -> bool:
        """True once a write to the sink has failed; later records are dropped."""
        return self._sink_failed

    def record(self, entry: SolveTelemetry) -> None:
        with self._lock:
            if self._sink_path is not None and not self._sink_failed:
                try:
                    if self._sink_handle is None:
                        self._sink_path.parent.mkdir(parents=True, exist_ok=True)
                        self._sink_handle = open(
                            self._sink_path, "a", encoding="utf-8"
                        )
                    self._sink_handle.write(
                        json.dumps(entry.as_dict(), separators=(",", ":")) + "\n"
                    )
                    self._sink_handle.flush()
                except OSError:
                    self._sink_failed = True
                    self._dropped.inc()
            elif self._sink_failed:
                self._dropped.inc()

    def drop(self) -> None:
        """Count one record that was lost before it reached :meth:`record`."""
        self._dropped.inc()

    def close(self) -> None:
        with self._lock:
            if self._sink_handle is not None:
                try:
                    self._sink_handle.close()
                except OSError:
                    pass
                self._sink_handle = None


_GLOBAL_LOG: Optional[TelemetryLog] = None
_GLOBAL_LOCK = threading.Lock()


def get_telemetry_log() -> TelemetryLog:
    """Process-global telemetry log.

    First use reads ``REPRO_TELEMETRY_FILE`` for the JSONL sink path; use
    :func:`configure_telemetry` to replace the log (tests, embedders).
    """

    global _GLOBAL_LOG
    with _GLOBAL_LOCK:
        if _GLOBAL_LOG is None:
            _GLOBAL_LOG = TelemetryLog(
                sink=os.environ.get("REPRO_TELEMETRY_FILE") or None
            )
        return _GLOBAL_LOG


def configure_telemetry(sink: Optional[Union[str, Path]] = None) -> TelemetryLog:
    """Replace the process-global telemetry log (closing the old sink)."""

    global _GLOBAL_LOG
    with _GLOBAL_LOCK:
        if _GLOBAL_LOG is not None:
            _GLOBAL_LOG.close()
        _GLOBAL_LOG = TelemetryLog(sink=sink)
        return _GLOBAL_LOG


def read_telemetry_file(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a telemetry JSONL file, skipping lines that fail to parse
    (concurrent appenders can tear a final partial line)."""

    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(doc, dict):
                records.append(doc)
    return records
