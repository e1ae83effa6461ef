"""Per-layer numbers from one traced pass.

The profiler is ``repro.obs.Tracer`` handed in through ``tracer=``; this
module only *reads* the spans it recorded and the benchmark's own outside
timings (statement latency, and for the one-shot path the seconds inside
``optimize_query`` and ``Executor.execute``).  A span's self time is its
duration minus its same-thread child spans; every second between
submission and answer lands in exactly one layer.
"""

from __future__ import annotations

LAYERS = (
    "service",
    "sql",
    "optimizer",
    "filters",
    "engine.scan",
    "engine.join",
    "engine.residual_filter",
    "engine.aggregate",
    "engine.topk",
    "engine.execute",
)

_NODE_LAYERS = (
    ("Scan(", "engine.scan"),
    ("HashJoin[", "engine.join"),
    ("Filter[", "engine.residual_filter"),
)
_SPAN_LAYERS = {
    "execute": "service",
    "parse_bind": "sql",
    "optimize": "optimizer",
    "filter.build": "filters",
    "filter.cache.wait": "filters",
    "aggregate": "engine.aggregate",
    "topk": "engine.topk",
}
_OPERATOR_SPANS = ("node", "aggregate", "topk")


def _span_layer(span) -> str | None:
    if span.name == "node":
        label = span.attributes.get("label", "")
        for prefix, layer in _NODE_LAYERS:
            if label.startswith(prefix):
                return layer
        return "engine.execute"
    # "morsel" (and anything unknown) inherits its parent's layer.
    return _SPAN_LAYERS.get(span.name)


def layer_self_times(spans, answers) -> dict[str, float]:
    """Seconds of one traced pass by layer (see ``LAYERS``)."""
    spans = [s for s in spans if not s.is_event]
    by_id = {s.span_id: s for s in spans}
    own = {s.span_id: s.duration for s in spans}
    for span in spans:
        parent = by_id.get(span.parent_id)
        if parent is not None and parent.thread_id == span.thread_id:
            own[parent.span_id] -= span.duration

    def layer_of(span) -> str:
        while span is not None:
            layer = _span_layer(span)
            if layer is not None:
                return layer
            span = by_id.get(span.parent_id)
        return "engine.execute"

    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        totals[layer_of(span)] += own[span.span_id]

    # Seconds inside the public calls but outside every tracer span.
    def parent_name(span):
        parent = by_id.get(span.parent_id)
        return None if parent is None else parent.name

    operators = sum(
        s.duration for s in spans
        if s.name in _OPERATOR_SPANS
        and parent_name(s) in (None, "execute")
    )
    answered = [a for a in answers if a.error is None]
    served = [a for a in answered if a.service_metrics is not None]
    if served:
        # Executor.execute runs inside the service's "execute" span: move
        # its driver time (outside any operator span) to the engine, and
        # charge submission-to-answer time outside the span to the service
        # (call overhead, admission queue, thread hand-off).
        in_executor = sum(a.service_metrics.execute_seconds for a in served)
        driver = in_executor - operators
        in_service = sum(s.duration for s in spans if s.name == "execute")
        totals["engine.execute"] += driver
        totals["service"] += (
            sum(a.latency for a in served) - in_service - driver
        )
    else:
        totals["engine.execute"] += (
            sum(a.parts["engine.execute"] for a in answered) - operators
        )
        totals["optimizer"] += sum(
            a.parts["optimizer.optimize_query"] for a in answered
        ) - sum(s.duration for s in spans if s.name == "optimize")
    return totals


def engine_counts(answers) -> dict[str, float]:
    """Deterministic engine counters summed over one pass's answers."""
    totals: dict[str, float] = {}
    for answer in answers:
        for key, value in (answer.counts or {}).items():
            totals[key] = totals.get(key, 0.0) + value
    return totals


def chrome_events(answers, pid: int) -> list[dict]:
    """The benchmark's outside spans as Chrome trace events."""
    events = []
    for answer in answers:
        events.append({
            "name": f"statement {answer.statement.name}",
            "ph": "X", "pid": pid, "tid": 0,
            "ts": answer.started * 1e6, "dur": answer.latency * 1e6,
            "args": {"error": answer.error} if answer.error else {},
        })
        offset = answer.started
        for name, seconds in answer.parts.items():
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 1,
                "ts": offset * 1e6, "dur": seconds * 1e6, "args": {},
            })
            offset += seconds
    return events
