"""Log-bucketed latency/row histograms and the service telemetry registry.

:class:`LogHistogram` counts observations in power-of-two buckets of
``value / resolution`` — 64 buckets cover any latency from one
microsecond to decades, so recording is one division, one
``bit_length`` and one list increment, with no allocation after
construction.  Quantiles (p50/p95/p99) are estimated from the bucket
cumulative counts using the geometric midpoint of the matched bucket's
range; error is bounded by the factor-of-two bucket width, which is the
standard trade (HdrHistogram-style) for always-on latency tracking.

Histograms merge bucket-wise, so per-shard or per-process registries
can be folded into one report.

:class:`ServiceTelemetry` is the registry the service keeps: execute
latency, optimize time, filter-build time, morsel task duration (all at
1 µs resolution) and output rows (resolution 1).  It is cheap enough to
stay always-on for values the service has already measured; the only
histogram that needs the tracer armed is morsel task duration, fed by
:meth:`observe_span` when a :class:`~repro.obs.trace.Tracer` with a
``telemetry`` hook closes a ``morsel`` span.
"""

from __future__ import annotations

import threading

_QUANTILES = (0.50, 0.95, 0.99)
_MAX_BUCKETS = 64


class LogHistogram:
    """Mergeable histogram with power-of-two buckets.

    Bucket ``b`` holds values with ``int(value / resolution)`` of bit
    length ``b``; bucket 0 holds values below ``resolution``.  The
    value range representative for quantiles is the geometric mean of
    the bucket's bounds.
    """

    __slots__ = ("resolution", "_counts", "count", "total", "_min", "_max", "_lock")

    def __init__(self, resolution: float = 1e-6) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self._counts = [0] * _MAX_BUCKETS
        self.count = 0
        self.total = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def _bucket(self, value: float) -> int:
        units = int(value / self.resolution)
        if units <= 0:
            return 0
        return min(units.bit_length(), _MAX_BUCKETS - 1)

    def record(self, value: float) -> None:
        """Count one observation (negative values clamp to bucket 0)."""
        bucket = self._bucket(value)
        with self._lock:
            self._counts[bucket] += 1
            self.count += 1
            self.total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self.count == 0:
                return 0.0
            # Nearest-rank: the smallest bucket whose cumulative count
            # covers ceil(q * count) observations.
            rank = max(q * self.count, 1.0)
            seen = 0
            for bucket, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= rank:
                    return self._representative(bucket)
            return self._representative(_MAX_BUCKETS - 1)  # pragma: no cover

    def _representative(self, bucket: int) -> float:
        # Clamp the modelled bucket range to observed extremes so small
        # samples aren't reported at a factor-of-two offset.
        if bucket == 0:
            low, high = 0.0, self.resolution
        else:
            low = (1 << (bucket - 1)) * self.resolution
            high = (1 << bucket) * self.resolution
        mid = (low * high) ** 0.5 if low > 0 else high / 2
        if self._max is not None:
            mid = min(mid, self._max)
        if self._min is not None:
            mid = max(mid, self._min)
        return mid

    def merge(self, other: "LogHistogram") -> None:
        """Fold ``other``'s buckets into this histogram, bucket-wise."""
        if other.resolution != self.resolution:
            raise ValueError(
                "cannot merge histograms with different resolutions: "
                f"{self.resolution} vs {other.resolution}"
            )
        with other._lock:
            counts = list(other._counts)
            count = other.count
            total = other.total
            other_min = other._min
            other_max = other._max
        with self._lock:
            for bucket, bucket_count in enumerate(counts):
                self._counts[bucket] += bucket_count
            self.count += count
            self.total += total
            if other_min is not None and (self._min is None or other_min < self._min):
                self._min = other_min
            if other_max is not None and (self._max is None or other_max > self._max):
                self._max = other_max

    def snapshot(self) -> dict:
        """Count/total/min/max plus p50/p95/p99 estimates, as a dict."""
        with self._lock:
            count = self.count
            total = self.total
            low = self._min
            high = self._max
        result = {
            "count": count,
            "total": total,
            "mean": (total / count) if count else 0.0,
            "min": low if low is not None else 0.0,
            "max": high if high is not None else 0.0,
        }
        for q in _QUANTILES:
            result[f"p{int(q * 100)}"] = self.quantile(q)
        return result


# Histogram names -> resolution. Latencies at 1 µs; counts at 1.
# ``admission_wait_seconds`` (time a query spent queued before
# dispatch) and ``queue_depth`` (admission queue depth observed at each
# arrival) fill only on the admission-controlled async path
# (:class:`repro.service.AsyncQueryService`).
_HISTOGRAMS = {
    "execute_seconds": 1e-6,
    "optimize_seconds": 1e-6,
    "filter_build_seconds": 1e-6,
    "morsel_task_seconds": 1e-6,
    "output_rows": 1.0,
    "admission_wait_seconds": 1e-6,
    "queue_depth": 1.0,
}

# Span names a tracer feeds straight into histograms on span close.
_SPAN_HISTOGRAMS = {
    "morsel": "morsel_task_seconds",
}


class ServiceTelemetry:
    """Registry of the service's standing histograms.

    Always-on values (execute/optimize/filter-build latency, output
    rows) are recorded from numbers the service already measured, so
    the cost is one histogram increment per query.  ``morsel_task_seconds``
    fills only while a tracer is armed — workers do not carry a second
    clock on the disarmed path.
    """

    def __init__(self) -> None:
        self.histograms: dict[str, LogHistogram] = {
            name: LogHistogram(resolution)
            for name, resolution in _HISTOGRAMS.items()
        }

    def record(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (must be registered)."""
        self.histograms[name].record(value)

    def observe_span(self, span) -> None:
        """Tracer hook: fold recognised span durations into histograms."""
        target = _SPAN_HISTOGRAMS.get(span.name)
        if target is not None:
            self.histograms[target].record(span.duration)

    def merge(self, other: "ServiceTelemetry") -> None:
        """Fold another registry's histograms into this one."""
        for name, histogram in self.histograms.items():
            histogram.merge(other.histograms[name])

    def snapshot(self) -> dict:
        """Per-histogram snapshots, keyed by histogram name."""
        return {
            name: histogram.snapshot()
            for name, histogram in self.histograms.items()
        }
