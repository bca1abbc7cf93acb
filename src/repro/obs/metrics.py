"""Typed metrics: counters, gauges, and mergeable log-bucketed histograms.

The span/counter layer (:mod:`repro.obs.spans`) answers *what work was
done*; this module answers *how it was distributed*.  A
:class:`Histogram` records a stream of observations into logarithmic
buckets (exact powers of two, derived from the value itself rather than
a fixed bucket table) so that

* recording is O(1) and allocation-free after the first observation of
  a magnitude,
* two histograms recorded independently — e.g. one per block of a
  threaded scan — **merge deterministically** by summing bucket counts,
  in any order, into exactly the histogram a single recorder would have
  produced,
* percentiles (p50/p90/p99) are computable at read time from the
  buckets alone, with linear interpolation inside a bucket and exact
  ``min``/``max`` clamping at the tails.

A :class:`MetricRegistry` owns named metric series (optionally labelled,
e.g. one request-latency histogram per service endpoint), is safe for
concurrent writers, folds another registry in (``merge()``, how a scan
block's metrics join the parent's), and serialises two ways: a JSON
``snapshot()`` for ``/metricz`` and ``Report.metrics``, and a Prometheus
text exposition (``prometheus_text()``) for scraping.

Everything is stdlib-only.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "bucket_bound",
]

#: Label sets are carried as sorted ``(key, value)`` tuples so they are
#: hashable and serialise deterministically.
LabelItems = tuple[tuple[str, str], ...]


def _label_items(labels: dict[str, str] | None) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def bucket_bound(value: float) -> float:
    """The log-bucket upper bound for ``value``: the smallest power of
    two ``>= value`` (``0.0`` for non-positive values).

    Bounds are computed from the value with exact float arithmetic
    (``math.frexp``), never from an accumulated table, so two recorders
    observing the same value always agree on the bucket — the property
    that makes histogram merging deterministic.
    """
    if value <= 0.0:
        return 0.0
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    if mantissa == 0.5:  # exact power of two: its own bound
        return value
    return math.ldexp(1.0, exponent)


class Counter:
    """A monotonically increasing sum (thread-safe)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: int | float = 0

    def inc(self, value: int | float = 1) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({value})")
        with self._lock:
            self._value += value

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value (thread-safe; last write wins)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: int | float = 0

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def add(self, value: int | float) -> None:
        with self._lock:
            self._value += value

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value


class Histogram:
    """Log-bucketed distribution of observations (thread-safe, mergeable).

    Buckets are sparse: ``{upper_bound: count}`` with upper bounds that
    are exact powers of two (see :func:`bucket_bound`), so only the
    magnitudes actually observed occupy memory.  ``count``/``sum`` are
    exact; ``min``/``max`` are exact and merge by min/max; percentiles
    interpolate linearly within a bucket and are clamped to
    ``[min, max]``.
    """

    __slots__ = ("name", "labels", "_lock", "_buckets", "_count", "_sum",
                 "_min", "_max")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._buckets: dict[float, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    # ------------------------------------------------------------------
    # Recording + merging
    # ------------------------------------------------------------------
    def record(self, value: int | float) -> None:
        value = float(value)
        bound = bucket_bound(value)
        with self._lock:
            self._buckets[bound] = self._buckets.get(bound, 0) + 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (order-insensitive)."""
        self.merge_dict(other.to_dict())

    def merge_dict(self, payload: dict[str, Any]) -> None:
        """Fold a serialised histogram (:meth:`to_dict` shape) in.

        Merging is commutative and associative: bucket counts, count and
        sum add; min/max combine by min/max.  Histograms recorded
        separately (one per scan block, or one per analysis) therefore
        merge into exactly the histogram one recorder would have
        recorded, regardless of merge order.
        """
        buckets = payload.get("buckets", ())
        other_min = payload.get("min")
        other_max = payload.get("max")
        with self._lock:
            for bound, count in buckets:
                bound = float(bound)
                self._buckets[bound] = self._buckets.get(bound, 0) + int(count)
            self._count += int(payload.get("count", 0))
            self._sum += float(payload.get("sum", 0.0))
            if other_min is not None and (
                self._min is None or other_min < self._min
            ):
                self._min = float(other_min)
            if other_max is not None and (
                self._max is None or other_max > self._max
            ):
                self._max = float(other_max)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile (``0 <= q <= 1``) estimated from buckets.

        ``None`` when empty.  Linear interpolation inside the target
        bucket; the result is clamped to the exact observed
        ``[min, max]`` so single-observation and tail queries are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float | None:
        if self._count == 0:
            return None
        assert self._min is not None and self._max is not None
        rank = q * self._count
        cumulative = 0
        lower = 0.0
        for bound in sorted(self._buckets):
            in_bucket = self._buckets[bound]
            if cumulative + in_bucket >= rank:
                if in_bucket == 0:
                    value = bound
                else:
                    fraction = (rank - cumulative) / in_bucket
                    value = lower + (bound - lower) * min(max(fraction, 0.0), 1.0)
                return min(max(value, self._min), self._max)
            cumulative += in_bucket
            lower = bound
        return self._max

    def to_dict(self) -> dict[str, Any]:
        """Full mergeable representation (sorted sparse buckets)."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": [
                    [bound, self._buckets[bound]]
                    for bound in sorted(self._buckets)
                ],
            }

    def summary(self) -> dict[str, Any]:
        """:meth:`to_dict` plus interpolated p50/p90/p99."""
        with self._lock:
            payload = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "p50": self._quantile_locked(0.50),
                "p90": self._quantile_locked(0.90),
                "p99": self._quantile_locked(0.99),
                "buckets": [
                    [bound, self._buckets[bound]]
                    for bound in sorted(self._buckets)
                ],
            }
        return payload

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs.

        The implicit ``+Inf`` bucket (total count) is appended with
        ``math.inf`` as its bound.
        """
        with self._lock:
            running = 0
            pairs: list[tuple[float, int]] = []
            for bound in sorted(self._buckets):
                running += self._buckets[bound]
                pairs.append((bound, running))
            pairs.append((math.inf, self._count))
            return pairs


class MetricRegistry:
    """A named collection of metric series, safe for concurrent writers.

    Series are keyed by ``(name, labels)``; accessors get-or-create, so
    instrumented code never pre-registers.  A name must keep one metric
    kind across the registry (registering ``x`` as both a counter and a
    histogram raises) — that is what keeps the Prometheus exposition
    well-formed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[tuple[str, LabelItems], Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, type] = {}

    # ------------------------------------------------------------------
    # Accessors (get-or-create)
    # ------------------------------------------------------------------
    def _get(self, kind: type, name: str, labels: dict[str, str] | None):
        items = _label_items(labels)
        key = (name, items)
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind is not kind:
                raise ValueError(
                    f"metric {name!r} is a {existing_kind.__name__}, "
                    f"not a {kind.__name__}"
                )
            series = self._series.get(key)
            if series is None:
                series = kind(name, items)
                self._series[key] = series
                self._kinds[name] = kind
            return series

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, labels: dict[str, str] | None = None
    ) -> Histogram:
        return self._get(Histogram, name, labels)

    # Convenience single-call forms -------------------------------------
    def inc(
        self, name: str, value: int | float = 1,
        labels: dict[str, str] | None = None,
    ) -> None:
        self.counter(name, labels).inc(value)

    def observe(
        self, name: str, value: int | float,
        labels: dict[str, str] | None = None,
    ) -> None:
        self.histogram(name, labels).record(value)

    # ------------------------------------------------------------------
    # Iteration + serialisation
    # ------------------------------------------------------------------
    def _items(self) -> list[tuple[str, LabelItems, Any]]:
        with self._lock:
            entries = list(self._series.items())
        return sorted(
            ((name, labels, series) for (name, labels), series in entries),
            key=lambda entry: (entry[0], entry[1]),
        )

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram]:
        for _, _, series in self._items():
            yield series

    def histograms(self) -> dict[str, Histogram]:
        """Unlabelled histograms by name (the engine's shape)."""
        return {
            name: series
            for name, labels, series in self._items()
            if isinstance(series, Histogram) and not labels
        }

    def snapshot(self) -> dict[str, Any]:
        """JSON-able read of every series, grouped by kind then name.

        Histogram entries are :meth:`Histogram.summary` dicts.  Series
        with labels appear as a list of ``{"labels": {...}, ...}``
        entries under their metric name; unlabelled series appear as the
        bare value/summary.
        """
        counters: dict[str, Any] = {}
        gauges: dict[str, Any] = {}
        histograms: dict[str, Any] = {}
        for name, labels, series in self._items():
            if isinstance(series, Counter):
                target, payload = counters, series.value
            elif isinstance(series, Gauge):
                target, payload = gauges, series.value
            else:
                target, payload = histograms, series.summary()
            if labels:
                entry = {"labels": dict(labels)}
                if isinstance(payload, dict):
                    entry.update(payload)
                else:
                    entry["value"] = payload
                target.setdefault(name, []).append(entry)
            else:
                target[name] = payload
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def histogram_summaries(self) -> dict[str, dict[str, Any]]:
        """``{name: summary}`` for unlabelled histograms (Report.metrics)."""
        return {
            name: series.summary() for name, series in self.histograms().items()
        }

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "MetricRegistry") -> None:
        """Fold ``other``'s counters and histograms in (order-insensitive).

        Gauges are point-in-time and deliberately excluded — a scan
        block's gauge has no meaningful parent-side merge.
        """
        for name, labels, series in other._items():
            if isinstance(series, Counter):
                self.counter(name, dict(labels)).inc(series.value)
            elif isinstance(series, Histogram):
                self.histogram(name, dict(labels)).merge(series)

    def merge_histogram_dicts(
        self, payloads: dict[str, dict[str, Any]]
    ) -> None:
        """Fold ``{name: Histogram.to_dict()}`` payloads in.

        The shape ``Report.metrics["histograms"]`` carries — lets the
        service accumulate per-analysis engine histograms into its
        registry.
        """
        for name, payload in payloads.items():
            self.histogram(name).merge_dict(payload)

    # ------------------------------------------------------------------
    # Prometheus text exposition (version 0.0.4)
    # ------------------------------------------------------------------
    def prometheus_text(
        self,
        prefix: str = "repro_",
        extra_counters: dict[str, int | float] | None = None,
        extra_gauges: dict[str, int | float] | None = None,
    ) -> str:
        """Render every series in the Prometheus text format.

        ``extra_counters`` / ``extra_gauges`` let a caller fold in plain
        name→value maps (the service's merged engine counters) without
        registering them as live series.
        """
        lines: list[str] = []
        emitted_types: set[str] = set()

        def type_line(metric: str, kind: str) -> None:
            if metric not in emitted_types:
                emitted_types.add(metric)
                lines.append(f"# TYPE {metric} {kind}")

        for name, value in sorted((extra_counters or {}).items()):
            metric = prefix + _sanitize(name) + "_total"
            type_line(metric, "counter")
            lines.append(f"{metric} {_format_value(value)}")
        for name, value in sorted((extra_gauges or {}).items()):
            metric = prefix + _sanitize(name)
            type_line(metric, "gauge")
            lines.append(f"{metric} {_format_value(value)}")

        for name, labels, series in self._items():
            if isinstance(series, Counter):
                metric = prefix + _sanitize(name) + "_total"
                type_line(metric, "counter")
                lines.append(
                    f"{metric}{_format_labels(labels)} "
                    f"{_format_value(series.value)}"
                )
            elif isinstance(series, Gauge):
                metric = prefix + _sanitize(name)
                type_line(metric, "gauge")
                lines.append(
                    f"{metric}{_format_labels(labels)} "
                    f"{_format_value(series.value)}"
                )
            else:
                metric = prefix + _sanitize(name)
                type_line(metric, "histogram")
                for bound, cumulative in series.cumulative_buckets():
                    le = "+Inf" if math.isinf(bound) else _format_value(bound)
                    bucket_labels = _format_labels(
                        labels + (("le", le),)
                    )
                    lines.append(f"{metric}_bucket{bucket_labels} {cumulative}")
                lines.append(
                    f"{metric}_sum{_format_labels(labels)} "
                    f"{_format_value(series.sum)}"
                )
                lines.append(
                    f"{metric}_count{_format_labels(labels)} {series.count}"
                )
        return "\n".join(lines) + "\n"


def _sanitize(name: str) -> str:
    """Map a dotted metric name onto the Prometheus charset."""
    return "".join(
        ch if ch.isascii() and (ch.isalnum() or ch == "_") else "_"
        for ch in name
    )


def _format_value(value: int | float) -> str:
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labels: LabelItems) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{_sanitize(key)}="{_escape(value)}"' for key, value in labels
    )
    return "{" + rendered + "}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )
