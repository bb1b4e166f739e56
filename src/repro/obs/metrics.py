"""A small, stdlib-only metrics registry.

Three instrument kinds — counters, gauges, and fixed-bucket histograms —
each of which is a *family*: a named metric plus a tuple of label names,
holding one concrete time series per distinct label-value combination.

Design points:

- **Thread/asyncio safe.**  All mutation happens under a single
  per-registry :class:`threading.Lock`.  asyncio callers share the same
  lock via the event-loop thread; cross-thread increments (the worker
  pool's thread mode) are serialised the same way.  Individual updates
  are O(1) dictionary operations, so contention is negligible at the
  request rates this service handles.
- **Cardinality guard.**  A family refuses to materialise more than
  ``max_series`` distinct label combinations.  Excess observations are
  folded into a single overflow series (every label value replaced by
  ``"~overflow"``) and counted in the registry-level
  ``repro_metrics_dropped_series_total`` counter, so a buggy caller that
  labels by request id degrades gracefully instead of eating memory.
- **Two export formats.**  :meth:`MetricsRegistry.snapshot` renders a
  plain-JSON document (used by the ``metrics --json`` CLI and by tests);
  :meth:`MetricsRegistry.exposition` renders Prometheus-style text
  exposition (``# HELP`` / ``# TYPE`` / cumulative ``_bucket`` lines).
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "exponential_buckets",
    "summarise_buckets",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Label value used for the fold-in series once a family exceeds its
#: cardinality budget.
OVERFLOW_LABEL_VALUE = "~overflow"

#: Default per-family cap on distinct label combinations.
DEFAULT_MAX_SERIES = 256

#: Histogram bucket bounds used for request/solve latencies, in seconds.
#: 1 ms .. ~131 s in powers of two; +Inf is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    0.001 * (2.0**i) for i in range(18)
)


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """Return ``count`` ascending bucket upper bounds ``start * factor**i``.

    The implicit ``+Inf`` bucket is not included; histograms add it
    themselves.
    """

    if start <= 0.0:
        raise ValueError("bucket start must be positive")
    if factor <= 1.0:
        raise ValueError("bucket factor must be > 1")
    if count < 1:
        raise ValueError("bucket count must be >= 1")
    return tuple(start * (factor**i) for i in range(count))


def _quantile_from_buckets(
    bounds: Sequence[float],
    counts: Sequence[int],
    total: int,
    q: float,
) -> float:
    """Estimate quantile ``q`` by linear interpolation within buckets.

    ``bounds`` are the finite upper bounds; ``counts`` are per-bucket
    (non-cumulative) observation counts with one extra trailing entry for
    the +Inf bucket.  Returns the interpolated value, clamping the +Inf
    bucket to its lower bound (the usual Prometheus convention).
    """

    if total <= 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        if bucket_count <= 0:
            continue
        if cumulative + bucket_count >= rank:
            lower = bounds[i - 1] if i > 0 else 0.0
            if i >= len(bounds):  # +Inf bucket: clamp to its lower edge
                return bounds[-1] if bounds else 0.0
            upper = bounds[i]
            fraction = (rank - cumulative) / bucket_count
            return lower + (upper - lower) * fraction
        cumulative += bucket_count
    return bounds[-1] if bounds else 0.0


def summarise_buckets(
    bounds: Sequence[float],
    counts: Sequence[int],
    total_sum: float,
) -> Dict[str, float]:
    """Summarise a histogram series: count, sum, mean, p50/p90/p99.

    ``counts`` must include the trailing +Inf bucket (``len(bounds)+1``
    entries).  Quantiles are bucket-interpolated estimates.
    """

    total = sum(counts)
    summary: Dict[str, float] = {
        "count": float(total),
        "sum": total_sum,
        "mean": (total_sum / total) if total else 0.0,
    }
    for label, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        summary[label] = _quantile_from_buckets(bounds, counts, total, q)
    return summary


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in zip(names, values)
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Family:
    """Common behaviour: label handling, series storage, cardinality guard."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        labels: Tuple[str, ...],
        max_series: int,
    ) -> None:
        self._registry = registry
        self._lock = registry._lock
        self.name = name
        self.help = help_text
        self.labels = labels
        self.max_series = max_series
        self._series: Dict[Tuple[str, ...], Any] = {}

    def _label_key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labels):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labels}, got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labels)

    def _series_for(self, key: Tuple[str, ...]) -> Any:
        """Fetch or create the series for ``key``; caller holds the lock."""

        series = self._series.get(key)
        if series is not None:
            return series
        if len(self._series) >= self.max_series:
            overflow_key = tuple(OVERFLOW_LABEL_VALUE for _ in self.labels)
            series = self._series.get(overflow_key)
            self._registry._note_dropped_series(self.name)
            if series is None:
                series = self._new_series()
                self._series[overflow_key] = series
            return series
        series = self._new_series()
        self._series[key] = series
        return series

    def _new_series(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def series_count(self) -> int:
        with self._lock:
            return len(self._series)


class CounterFamily(_Family):
    """Monotonically increasing counter family."""

    kind = "counter"

    def _new_series(self) -> List[float]:
        return [0.0]

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._label_key(labels)
        with self._lock:
            self._series_for(key)[0] += amount

    def value(self, **labels: object) -> float:
        key = self._label_key(labels)
        with self._lock:
            series = self._series.get(key)
            return series[0] if series is not None else 0.0

    def values(self) -> Dict[Tuple[str, ...], float]:
        with self._lock:
            return {key: cell[0] for key, cell in self._series.items()}


class GaugeFamily(_Family):
    """Gauge family: a value that can go up and down."""

    kind = "gauge"

    def _new_series(self) -> List[float]:
        return [0.0]

    def set(self, value: float, **labels: object) -> None:
        key = self._label_key(labels)
        with self._lock:
            self._series_for(key)[0] = value

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._label_key(labels)
        with self._lock:
            self._series_for(key)[0] += amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = self._label_key(labels)
        with self._lock:
            series = self._series.get(key)
            return series[0] if series is not None else 0.0


class _HistogramSeries:
    __slots__ = ("counts", "total", "sum")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # trailing +Inf bucket
        self.total = 0
        self.sum = 0.0


class HistogramFamily(_Family):
    """Fixed-bucket histogram family.

    ``buckets`` are ascending finite upper bounds (``value <= bound``
    lands in that bucket); an implicit +Inf bucket catches the rest.
    """

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        labels: Tuple[str, ...],
        buckets: Tuple[float, ...],
        max_series: int,
    ) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= 0 for b in buckets) or any(
            buckets[i] >= buckets[i + 1] for i in range(len(buckets) - 1)
        ):
            raise ValueError("histogram buckets must be positive and ascending")
        super().__init__(registry, name, help_text, labels, max_series)
        self.buckets = buckets

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(len(self.buckets))

    def _bucket_index(self, value: float) -> int:
        """Index of the first bucket whose bound is >= value (binary search)."""

        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo  # == len(buckets) means +Inf

    def observe(self, value: float, **labels: object) -> None:
        key = self._label_key(labels)
        index = self._bucket_index(value)
        with self._lock:
            series = self._series_for(key)
            series.counts[index] += 1
            series.total += 1
            series.sum += value

    def summary(self, **labels: object) -> Dict[str, float]:
        key = self._label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return summarise_buckets(self.buckets, [0] * (len(self.buckets) + 1), 0.0)
            counts = list(series.counts)
            total_sum = series.sum
        return summarise_buckets(self.buckets, counts, total_sum)

    def merged_summary(self) -> Dict[str, float]:
        """Summary over *all* series of this family combined."""

        with self._lock:
            counts = [0] * (len(self.buckets) + 1)
            total_sum = 0.0
            for series in self._series.values():
                for i, c in enumerate(series.counts):
                    counts[i] += c
                total_sum += series.sum
        return summarise_buckets(self.buckets, counts, total_sum)


class MetricsRegistry:
    """Process- or component-scoped collection of metric families.

    Each service/router instance owns its own registry so that several
    nodes hosted in one process (tests, the in-process load harness) do
    not merge their counters.  Library-level metrics that have no owning
    component use :func:`get_global_registry`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._dropped_series: Dict[str, int] = {}

    # -- family constructors -------------------------------------------------

    def _register(self, family: _Family) -> _Family:
        if not _NAME_RE.match(family.name):
            raise ValueError(f"invalid metric name: {family.name!r}")
        for label in family.labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        if family.kind == "histogram" and "le" in family.labels:
            raise ValueError("histograms reserve the 'le' label for bucket bounds")
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if existing.kind != family.kind or existing.labels != family.labels:
                    raise ValueError(
                        f"metric {family.name!r} already registered with a "
                        f"different kind or label set"
                    )
                return existing
            self._families[family.name] = family
        return family

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> CounterFamily:
        family = self._register(
            CounterFamily(self, name, help_text, tuple(labels), max_series)
        )
        assert isinstance(family, CounterFamily)
        return family

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> GaugeFamily:
        family = self._register(
            GaugeFamily(self, name, help_text, tuple(labels), max_series)
        )
        assert isinstance(family, GaugeFamily)
        return family

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> HistogramFamily:
        family = self._register(
            HistogramFamily(
                self, name, help_text, tuple(labels), tuple(buckets), max_series
            )
        )
        assert isinstance(family, HistogramFamily)
        return family

    # -- cardinality guard ---------------------------------------------------

    def _note_dropped_series(self, family_name: str) -> None:
        # Caller already holds self._lock.
        self._dropped_series[family_name] = self._dropped_series.get(family_name, 0) + 1

    def dropped_series(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._dropped_series)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON snapshot of every family and series."""

        doc: Dict[str, Any] = {}
        with self._lock:
            families = list(self._families.values())
        for family in families:
            entry: Dict[str, Any] = {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.labels),
                "series": [],
            }
            with self._lock:
                items = list(family._series.items())
                if isinstance(family, HistogramFamily):
                    items = [
                        (key, (list(s.counts), s.total, s.sum)) for key, s in items
                    ]
                else:
                    items = [(key, cell[0]) for key, cell in items]
            for key, payload in sorted(items):
                labels = dict(zip(family.labels, key))
                if isinstance(family, HistogramFamily):
                    counts, total, total_sum = payload
                    entry["series"].append(
                        {
                            "labels": labels,
                            "count": total,
                            "sum": total_sum,
                            "buckets": [
                                [bound, counts[i]]
                                for i, bound in enumerate(family.buckets)
                            ]
                            + [["+Inf", counts[-1]]],
                        }
                    )
                else:
                    entry["series"].append({"labels": labels, "value": payload})
            doc[family.name] = entry
        dropped = self.dropped_series()
        if dropped:
            doc["_dropped_series"] = dropped
        return doc

    def exposition(self) -> str:
        """Prometheus-style text exposition of every family."""

        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            with self._lock:
                items = sorted(family._series.items())
                if isinstance(family, HistogramFamily):
                    rendered = [
                        (key, (list(s.counts), s.total, s.sum)) for key, s in items
                    ]
                else:
                    rendered = [(key, cell[0]) for key, cell in items]
            for key, payload in rendered:
                if isinstance(family, HistogramFamily):
                    counts, total, total_sum = payload
                    cumulative = 0
                    for i, bound in enumerate(family.buckets):
                        cumulative += counts[i]
                        bucket_labels = _format_labels(
                            family.labels + ("le",),
                            key + (_format_value(bound),),
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {cumulative}"
                        )
                    cumulative += counts[-1]
                    inf_labels = _format_labels(
                        family.labels + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{family.name}_bucket{inf_labels} {cumulative}")
                    plain = _format_labels(family.labels, key)
                    lines.append(f"{family.name}_sum{plain} {_format_value(total_sum)}")
                    lines.append(f"{family.name}_count{plain} {total}")
                else:
                    plain = _format_labels(family.labels, key)
                    lines.append(f"{family.name}{plain} {_format_value(payload)}")
        dropped = self.dropped_series()
        if dropped:
            lines.append("# TYPE repro_metrics_dropped_series_total counter")
            for name, count in sorted(dropped.items()):
                labels = _format_labels(("family",), (name,))
                lines.append(f"repro_metrics_dropped_series_total{labels} {count}")
        return "\n".join(lines) + "\n"

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """Merged per-family summaries for every histogram in the registry."""

        with self._lock:
            histograms = [
                f for f in self._families.values() if isinstance(f, HistogramFamily)
            ]
        return {h.name: h.merged_summary() for h in sorted(histograms, key=lambda f: f.name)}


_GLOBAL_REGISTRY: Optional[MetricsRegistry] = None
_GLOBAL_LOCK = threading.Lock()


def get_global_registry() -> MetricsRegistry:
    """Process-wide registry for library-level (component-less) metrics."""

    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        if _GLOBAL_REGISTRY is None:
            _GLOBAL_REGISTRY = MetricsRegistry()
        return _GLOBAL_REGISTRY


def parse_exposition(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse text exposition back into ``{name: {"type":..., "samples":[...]}}``.

    Intentionally small — enough for CI assertions and tests, not a full
    Prometheus parser.  Sample entries are ``(labels_dict, value)`` pairs
    keyed under the *sample* name (so histogram ``_bucket``/``_sum``/
    ``_count`` samples appear under those suffixed names).
    """

    families: Dict[str, Dict[str, Any]] = {}
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            parts = rest.split()
            if len(parts) == 2:
                families[parts[0]] = {"type": parts[1], "samples": []}
            continue
        if line.startswith("#"):
            continue
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$", line)
        if not match:
            raise ValueError(f"unparseable exposition line: {line!r}")
        name, label_blob, value_text = match.groups()
        labels: Dict[str, str] = {}
        if label_blob:
            for lm in re.finditer(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"', label_blob):
                value = lm.group(2)
                value = (
                    value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
                )
                labels[lm.group(1)] = value
        value = math.inf if value_text == "+Inf" else float(value_text)
        samples.setdefault(name, []).append((labels, value))
    for name, entries in samples.items():
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        target = families.setdefault(base, {"type": "untyped", "samples": []})
        if base != name:
            target.setdefault(name, []).extend(entries)
        else:
            target["samples"].extend(entries)
    return families


def iter_histogram_series(
    snapshot: Mapping[str, Any], name: str
) -> Iterable[Dict[str, Any]]:
    """Yield histogram series dicts for ``name`` from a snapshot document."""

    entry = snapshot.get(name)
    if not entry or entry.get("type") != "histogram":
        return
    yield from entry.get("series", [])
