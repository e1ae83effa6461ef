"""Service observability surfaces: explain_analyze, tracing, telemetry."""

from __future__ import annotations

import re

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro.errors import QueryTimeout
from repro.obs import Tracer
from repro.service import QueryService

_JOIN_SQL = (
    "SELECT COUNT(*) AS cnt, SUM(f.m) AS total FROM fact f, dim1 d1, dim2 d2 "
    "WHERE f.fk1 = d1.id AND f.fk2 = d2.id AND d1.v < 5 AND d2.w < 8"
)


@pytest.fixture()
def service(star_db) -> QueryService:
    return QueryService(star_db)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_results_identical_with_tracing_on_and_off(
    star_db, monkeypatch, parallelism
):
    # Force morsel splits on the test-sized fact table so the fan-out
    # path's instrumentation sites run too.
    monkeypatch.setattr(executor_module, "_MIN_PARALLEL_ROWS", 64)
    monkeypatch.setattr("repro.storage.partition.MIN_MORSEL_ROWS", 16)
    service = QueryService(star_db, parallelism=parallelism, morsel_rows=512)
    off = service.execute(_JOIN_SQL, name="q_off")
    tracer = Tracer()
    on = service.execute(_JOIN_SQL, name="q_on", tracer=tracer)
    assert bool(tracer.spans("morsel")) == (parallelism > 1)
    assert off.result.aggregates.keys() == on.result.aggregates.keys()
    for label, values in off.result.aggregates.items():
        assert values.dtype == on.result.aggregates[label].dtype
        np.testing.assert_array_equal(values, on.result.aggregates[label])


def test_traced_execute_records_the_lifecycle_spans(service):
    tracer = Tracer()
    outcome = service.execute(_JOIN_SQL, name="traced", tracer=tracer)
    assert outcome.ok
    names = {span.name for span in tracer.spans()}
    # Cold query: parse/bind + optimize + execution tree + finalize.
    assert {"execute", "parse_bind", "optimize", "plan_cache",
            "node", "aggregate"} <= names
    (execute,) = tracer.spans("execute")
    assert execute.attributes["rows"] == outcome.num_rows
    assert execute.attributes["plan_cache_hit"] is False
    (cache_event,) = tracer.spans("plan_cache")
    assert cache_event.attributes["hit"] is False
    # Spans nest: every non-root span's parent exists in the trace.
    by_id = {span.span_id: span for span in tracer.spans()}
    for span in tracer.spans():
        if span.parent_id is not None:
            assert span.parent_id in by_id
    assert tracer.dropped == 0

    warm_tracer = Tracer()
    service.execute(_JOIN_SQL, name="traced_warm", tracer=warm_tracer)
    warm_names = {span.name for span in warm_tracer.spans()}
    assert "parse_bind" not in warm_names  # plan-cache hit skips binding
    (warm_event,) = warm_tracer.spans("plan_cache")
    assert warm_event.attributes["hit"] is True


def test_explain_analyze_annotates_actuals_beside_estimates(service):
    rendered = service.explain_analyze(_JOIN_SQL)
    assert "EXPLAIN ANALYZE" in rendered
    assert "wall " in rendered and "optimize " in rendered
    # Every executed plan node line carries actual rows/time + estimate.
    actual_lines = [line for line in rendered.splitlines() if "actual" in line]
    assert len(actual_lines) >= 4  # 2 scans + 2 joins at minimum
    for line in actual_lines:
        assert "rows in" in line and "ms" in line and "est " in line
    assert "spans:" in rendered


def test_explain_analyze_on_a_plan_cache_hit_estimates_this_calls_constants(
    star_db,
):
    """A cached plan's scans hold the constants of the call that planned
    it; a hit's estimates are priced under this call's."""
    narrow = _JOIN_SQL.replace("d1.v < 5", "d1.v < 3")
    warm = QueryService(star_db)
    warm.explain_analyze(_JOIN_SQL)
    hit = warm.explain_analyze(narrow)
    fresh = QueryService(star_db).explain_analyze(narrow)
    assert "plan cache HIT" in hit and "plan cache MISS" in fresh
    estimates = re.compile(r"est (\d+) rows")
    assert estimates.findall(hit) == estimates.findall(fresh)


def test_optimize_span_and_header_say_what_the_search_did(service):
    # A 2-dimension star is one snowflake with 1 fact-first + 2
    # dimension-led candidates (Theorem 4.1: n + 1).
    tracer = Tracer()
    service.execute(_JOIN_SQL, name="searched", tracer=tracer)
    (optimize,) = tracer.spans("optimize")
    assert optimize.attributes["candidates"] == 3
    assert optimize.attributes["snowflakes"] == 1

    service.invalidate()
    cold = service.explain_analyze(_JOIN_SQL)
    assert "plan cache MISS" in cold
    assert "ms (3 candidates, 1 snowflakes) + execute" in cold
    warm = service.explain_analyze(_JOIN_SQL)
    assert "plan cache HIT" in warm and "candidates" not in warm


def test_explain_analyze_on_tpcds_join(tpcds_tiny):
    database, _specs = tpcds_tiny
    service = QueryService(database)
    rendered = service.explain_analyze(
        "SELECT COUNT(*) AS cnt, SUM(ss.ss_net_paid) AS total "
        "FROM store_sales ss, date_dim d, store s "
        "WHERE ss.ss_sold_date_sk = d.d_date_sk "
        "AND ss.ss_store_sk = s.s_store_sk AND d.d_year = 2001"
    )
    assert "EXPLAIN ANALYZE" in rendered
    assert "store_sales" in rendered
    assert any(
        "actual" in line and "est " in line
        for line in rendered.splitlines()
    )


def test_telemetry_snapshot_tracks_execute_latency(service):
    before = service.telemetry_snapshot()["execute_seconds"]["count"]
    service.execute(_JOIN_SQL, name="t1")
    service.execute(_JOIN_SQL, name="t2")
    snap = service.telemetry_snapshot()
    assert snap["execute_seconds"]["count"] == before + 2
    assert snap["output_rows"]["count"] >= 2
    assert snap["execute_seconds"]["p95"] >= snap["execute_seconds"]["p50"] > 0
    assert service.stats().telemetry == snap


def test_service_wide_tracer_arms_every_execute(star_db):
    tracer = Tracer()
    service = QueryService(star_db, tracer=tracer)
    service.execute(_JOIN_SQL)
    assert tracer.spans("execute")
    # The service wires its telemetry into the tracer it was given.
    assert tracer.telemetry is service.telemetry
    assert service.telemetry_snapshot()["execute_seconds"]["count"] == 1


def test_wall_seconds_covers_optimize_and_execute(service):
    outcome = service.execute(_JOIN_SQL, name="walled")
    metrics = outcome.metrics
    assert metrics.wall_seconds > 0.0
    assert metrics.wall_seconds >= metrics.execute_seconds
    assert service.stats().total_wall_seconds >= metrics.wall_seconds


def test_run_many_slots_carry_wall_seconds_even_on_error(service):
    results = service.run_many([
        _JOIN_SQL,
        "SELECT COUNT(*) AS cnt FROM no_such_table t",
    ])
    assert results[0].ok and not results[1].ok
    for result in results:
        assert result.metrics.wall_seconds > 0.0
    assert results[1].metrics.error is not None


def test_aborted_query_emits_resilience_event(service):
    service.execute(_JOIN_SQL, name="warm")  # plan cache warm: abort in execution
    tracer = Tracer()
    with pytest.raises(QueryTimeout):
        service.execute(
            _JOIN_SQL, name="doomed", deadline_seconds=1e-9, tracer=tracer
        )
    (abort,) = tracer.spans("resilience.abort")
    assert abort.attributes["cause"] == "QueryTimeout"
    (execute,) = tracer.spans("execute")
    assert execute.attributes["error"].startswith("QueryTimeout")
