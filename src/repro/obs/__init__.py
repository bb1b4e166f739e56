"""Observability primitives: metrics registry, tracing, solve telemetry, per-solve recorder.

Everything in this package is stdlib-only and safe to import from any
layer of the system (it has no dependencies on :mod:`repro.api` or
:mod:`repro.service`).
"""

from repro.obs.metrics import (
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
    exponential_buckets,
    summarise_buckets,
)
from repro.obs.telemetry import (
    SolveTelemetry,
    TelemetryLog,
    configure_telemetry,
    get_telemetry_log,
)
from repro.obs.tracing import (
    Span,
    TraceContext,
    Tracer,
    configure_tracer,
    current_trace,
    get_tracer,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "MetricsRegistry",
    "exponential_buckets",
    "summarise_buckets",
    "SolveTelemetry",
    "TelemetryLog",
    "configure_telemetry",
    "get_telemetry_log",
    "Span",
    "TraceContext",
    "Tracer",
    "configure_tracer",
    "current_trace",
    "get_tracer",
    "new_span_id",
    "new_trace_id",
]
