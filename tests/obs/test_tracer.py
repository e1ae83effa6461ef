"""Tracer mechanics: nesting, parenting, ring buffers, Chrome export."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import Tracer


def test_spans_nest_under_the_enclosing_span():
    tracer = Tracer()
    with tracer.span("query") as outer:
        with tracer.span("optimize") as inner:
            pass
    spans = tracer.spans()
    assert [s.name for s in spans] == ["query", "optimize"]
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None


def test_span_timestamps_are_monotonic_and_duration_consistent():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans()
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert outer.duration == pytest.approx(outer.end - outer.start)
    assert outer.thread_id == threading.get_ident()


def test_explicit_parent_links_across_threads():
    tracer = Tracer()
    recorded = {}

    with tracer.span("dispatch") as dispatch:
        parent = tracer.current_span_id()

        def worker():
            with tracer.span("morsel", parent=parent) as span:
                recorded["span"] = span

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()

    assert recorded["span"].parent_id == dispatch.span_id
    assert recorded["span"].thread_id != dispatch.thread_id
    # Each thread records into its own buffer; spans() merges them.
    assert {s.name for s in tracer.spans()} == {"dispatch", "morsel"}


def test_attributes_set_and_open_span_duration():
    tracer = Tracer()
    span = tracer.span("work", rows_in=10)
    assert span.duration == 0.0  # still open
    span.set(rows_out=7)
    with span:
        pass
    assert span.attributes == {"rows_in": 10, "rows_out": 7}
    assert span.duration > 0.0


def test_exception_stamps_error_attribute_and_closes():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("doomed"):
            raise ValueError("boom")
    (span,) = tracer.spans()
    assert span.attributes["error"] == "ValueError: boom"
    assert span.end is not None


def test_events_are_zero_duration_points():
    tracer = Tracer()
    with tracer.span("query") as outer:
        event = tracer.event("plan_cache", hit=True)
    assert event.is_event
    assert event.duration == 0.0
    assert event.parent_id == outer.span_id
    assert event.attributes == {"hit": True}


def test_ring_buffer_caps_memory_and_counts_drops():
    tracer = Tracer(max_spans_per_thread=8)
    for index in range(20):
        with tracer.span("s", index=index):
            pass
    spans = tracer.spans()
    assert len(spans) == 8
    assert tracer.dropped == 12
    # The newest spans survive; the oldest were overwritten.
    assert {s.attributes["index"] for s in spans} == set(range(12, 20))


def test_spans_filter_by_name_and_reset_clears():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    assert [s.name for s in tracer.spans("b")] == ["b"]
    tracer.reset()
    assert tracer.spans() == []
    assert tracer.dropped == 0


def test_export_chrome_is_valid_trace_event_json(tmp_path):
    tracer = Tracer()
    with tracer.span("query", query="q1"):
        with tracer.span("node", node_id=3):
            pass
        tracer.event("scan.band_search", band_rows=2)
    payload = json.loads(tracer.export_chrome())
    events = payload["traceEvents"]
    assert [e["name"] for e in events] == ["query", "node", "scan.band_search"]
    complete = {e["name"]: e for e in events if e["ph"] == "X"}
    assert set(complete) == {"query", "node"}
    for entry in complete.values():
        assert entry["dur"] >= 0.0
        assert entry["pid"] == 1
    instant = next(e for e in events if e["ph"] == "i")
    assert instant["s"] == "t"
    assert instant["args"]["band_rows"] == 2
    # Parent linkage travels in args; timestamps are microseconds.
    assert complete["node"]["args"]["parent_span"] == complete["query"]["args"]["span_id"]
    assert complete["node"]["ts"] >= complete["query"]["ts"]

    out = tmp_path / "trace.json"
    tracer.write_chrome(out)
    assert json.loads(out.read_text())["traceEvents"] == events


def test_attribute_keys_name_and_parent_are_reserved():
    tracer = Tracer()
    with pytest.raises(TypeError):
        tracer.span("query", name="collides")
