"""Resource budgets: hard caps on materialized work, with optional
graceful degradation to the serial path.

Budgets meter the engine's real ``rows_copied`` / ``bytes_gathered``
counters (the zero-copy accounting), checked after every parallel
barrier and at plan-node dispatch — so a breach means actual gathers
happened, and the degraded rerun must still produce the exact serial
answer.
"""

from __future__ import annotations

import pytest

from repro import QueryService, ResourceBudget
from repro.engine.metrics import ExecutionMetrics
from repro.errors import ResourceExhausted

SUM_SQL = (
    "SELECT SUM(f.m) AS total FROM fact f, dim1 d1 "
    "WHERE f.fk1 = d1.id AND d1.v < 6"
)


def _probe_cost(star_db):
    """What the statement actually materializes, with budgets off."""
    metrics = QueryService(
        star_db, parallelism=4, morsel_rows=512
    ).execute(SUM_SQL).metrics
    return metrics.rows_copied, metrics.bytes_gathered


def test_budget_breach_descriptions():
    metrics = ExecutionMetrics()
    metrics.rows_copied = 11
    metrics.bytes_gathered = 2048
    assert ResourceBudget().breach(metrics) is None
    assert ResourceBudget(max_rows_copied=11).breach(metrics) is None
    assert "rows_copied 11 exceeds budget 10" in ResourceBudget(
        max_rows_copied=10
    ).breach(metrics)
    assert "bytes_gathered 2048 exceeds budget 1" in ResourceBudget(
        max_bytes_gathered=1
    ).breach(metrics)


def test_breach_raises_resource_exhausted_by_default(star_db):
    rows, _ = _probe_cost(star_db)
    assert rows > 1  # the statement really gathers; the cap below bites
    service = QueryService(
        star_db,
        parallelism=4,
        morsel_rows=512,
        budget=ResourceBudget(max_rows_copied=1),
    )
    with pytest.raises(
        ResourceExhausted, match="breached its resource budget"
    ) as excinfo:
        service.execute(SUM_SQL, name="hungry")
    # The executor attaches the counters that tripped the cap.
    partial = excinfo.value.partial_metrics
    assert isinstance(partial, ExecutionMetrics)
    assert partial.rows_copied > 1
    stats = service.stats()
    assert stats.failures == 1 and stats.timeouts == 0
    assert stats.degradations == 0


def test_degrade_serial_answers_and_records(star_db):
    budgeted = QueryService(
        star_db,
        parallelism=4,
        morsel_rows=512,
        budget=ResourceBudget(max_rows_copied=1),
        degrade="serial",
    )
    answer = budgeted.execute(SUM_SQL, name="degradable")
    assert answer.ok
    assert answer.metrics.degraded
    stats = budgeted.stats()
    assert stats.degradations == 1 and stats.failures == 0
    # The degraded rerun executes on the serial fallback — the answer
    # must be byte-identical to a fresh serial service's.
    oracle = QueryService(star_db).execute(SUM_SQL)
    assert not oracle.metrics.degraded
    assert (
        answer.result.aggregates["total"].tobytes()
        == oracle.result.aggregates["total"].tobytes()
    )


def test_per_call_budget_overrides_service_default(star_db):
    service = QueryService(star_db, parallelism=4, morsel_rows=512)
    first = service.execute(SUM_SQL)  # no budget: fine
    assert first.ok
    with pytest.raises(ResourceExhausted):
        service.execute(SUM_SQL, budget=ResourceBudget(max_bytes_gathered=1))


def test_unknown_degrade_mode_is_rejected(star_db):
    from repro.errors import ServiceError

    with pytest.raises(ServiceError, match="unknown degrade mode"):
        QueryService(star_db, degrade="shed")
