"""Query-lifecycle observability: structured tracing and telemetry.

Two complementary instruments, both strictly opt-in:

* :class:`~repro.obs.trace.Tracer` — hierarchical wall-clock spans
  recorded into per-thread ring buffers, exportable as a Chrome
  trace-event JSON (``chrome://tracing`` / Perfetto) and consumed by
  :meth:`repro.service.QueryService.explain_analyze` for per-operator
  actual-vs-estimated plan annotations.
* :class:`~repro.obs.telemetry.ServiceTelemetry` — a registry of
  log-bucketed latency/row histograms (p50/p95/p99 estimates),
  mergeable like :class:`~repro.engine.metrics.ExecutionMetrics`,
  surfaced through :meth:`repro.service.QueryService.stats` and
  :meth:`repro.service.QueryService.telemetry_snapshot`.

The disarmed discipline matches :mod:`repro.testing.faults` and
:class:`repro.engine.context.ExecutionContext`: with no tracer attached
every instrumented site costs one attribute load and a ``None`` test,
and results are byte-identical with tracing on or off (``perf/run.py``
reports the armed cost as ``obs.trace_overhead_ratio``).
"""

from repro.obs.telemetry import LogHistogram, ServiceTelemetry
from repro.obs.trace import Span, Tracer

__all__ = [
    "LogHistogram",
    "ServiceTelemetry",
    "Span",
    "Tracer",
]
