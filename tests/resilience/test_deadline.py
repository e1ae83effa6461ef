"""Deadlines and cooperative cancellation, unit level through service
level.

The enforcement is cooperative — checkpoints at plan-node dispatch,
morsel-task start, and optimizer enumeration steps — so the tests pin
three things: the right typed error surfaces (:class:`QueryTimeout`
with partial metrics attached, :class:`QueryCancelled` for sheds), a
stalled worker cannot outlive its deadline, and a timed-out query
leaves the service able to answer the very next request correctly.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro import Deadline, ExecutionContext, Executor, QueryService
from repro.engine.context import CancelToken
from repro.engine.metrics import ExecutionMetrics
from repro.errors import QueryCancelled, QueryTimeout
from repro.optimizer import optimize_query
from repro.testing import FaultPlan, inject

COUNT_SQL = (
    "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
    "WHERE f.fk1 = d1.id AND d1.v < 4"
)


def _expired(seconds: float) -> Deadline:
    """A deadline of ``seconds`` that started a second ago: already
    expired, with no sleep."""
    return Deadline(seconds, start=time.monotonic() - 1.0)


def _expected_count(db, threshold=4):
    dim1, fact = db.table("dim1"), db.table("fact")
    selected = dim1.column("id")[dim1.column("v") < threshold]
    return int(np.isin(fact.column("fk1"), selected).sum())


# -- units -------------------------------------------------------------


def test_deadline_rejects_non_positive_seconds():
    with pytest.raises(ValueError):
        Deadline(0)
    with pytest.raises(ValueError):
        Deadline(-1.5)


def test_deadline_expires_on_the_monotonic_clock():
    deadline = _expired(0.01)
    assert not Deadline(60.0).expired()
    assert deadline.expired()
    assert deadline.remaining() < 0


def test_cancel_token_keeps_the_first_reason():
    token = CancelToken()
    assert not token.cancelled and token.reason is None
    token.cancel("root cause")
    token.cancel("secondary symptom")
    assert token.cancelled
    assert token.reason == "root cause"


def test_expired_context_raises_timeout_and_trips_token():
    context = ExecutionContext(query="q7", deadline=_expired(1e-9))
    with pytest.raises(QueryTimeout, match=r"'q7' exceeded its deadline"):
        context.check()
    # Siblings observe the trip as a cancellation with the root cause.
    assert context.cancel_token.cancelled
    assert "deadline" in context.cancel_token.reason


def test_cancelled_context_raises_with_reason():
    context = ExecutionContext(query="q8", deadline=60.0)
    context.cancel("shed by admission control")
    with pytest.raises(QueryCancelled, match="shed by admission control"):
        context.check()


def test_context_without_limits_is_disabled():
    assert not ExecutionContext(query="q").enabled
    assert ExecutionContext(query="q", deadline=5.0).enabled


def test_float_deadline_converts_to_deadline_object():
    context = ExecutionContext(query="q", deadline=2.5)
    assert isinstance(context.deadline, Deadline)
    assert context.deadline.seconds == 2.5


# -- executor ----------------------------------------------------------


def test_executor_timeout_attaches_partial_metrics(star_db, star_spec):
    plan = optimize_query(star_db, star_spec, "bqo").plan
    executor = Executor(star_db, parallelism=4, morsel_rows=512)
    context = ExecutionContext(query="slow_q", deadline=_expired(1e-9))
    with pytest.raises(QueryTimeout) as excinfo:
        executor.execute(plan, context=context)
    assert isinstance(excinfo.value.partial_metrics, ExecutionMetrics)


def test_disabled_context_is_dropped_entirely(star_db, star_spec):
    plan = optimize_query(star_db, star_spec, "bqo").plan
    result = Executor(star_db).execute(
        plan, context=ExecutionContext(query="free")
    )
    assert result.metrics.context is None


def test_armed_context_rides_on_metrics(star_db, star_spec):
    plan = optimize_query(star_db, star_spec, "bqo").plan
    context = ExecutionContext(query="armed", deadline=60.0)
    result = Executor(star_db).execute(plan, context=context)
    assert result.metrics.context is context


@pytest.mark.parametrize("parallelism", [1, 4])
def test_armed_answer_is_the_unarmed_one(
    star_db, star_spec, monkeypatch, parallelism
):
    """Checkpoints never change execution: with a deadline armed the
    answer is the unarmed one, byte for byte, also when the fan-out
    path's morsel tasks run their own checkpoints."""
    monkeypatch.setattr(executor_module, "_MIN_PARALLEL_ROWS", 64)
    monkeypatch.setattr("repro.storage.partition.MIN_MORSEL_ROWS", 16)
    checks = []
    real_check = ExecutionContext.check
    monkeypatch.setattr(
        ExecutionContext, "check",
        lambda self: checks.append(self.query) or real_check(self),
    )
    plan = optimize_query(star_db, star_spec, "bqo").plan
    executor = Executor(star_db, parallelism=parallelism, morsel_rows=512)
    unarmed = executor.execute(plan)
    assert checks == []
    armed = executor.execute(
        plan, context=ExecutionContext(query="armed", deadline=60.0)
    )
    assert len(checks) > 0
    assert armed.aggregates.keys() == unarmed.aggregates.keys()
    for label, values in unarmed.aggregates.items():
        assert values.dtype == armed.aggregates[label].dtype
        assert values.tobytes() == armed.aggregates[label].tobytes()


# -- optimizer ---------------------------------------------------------


def test_optimizer_enumeration_aborts_under_expired_deadline(
    star_db, star_spec
):
    context = ExecutionContext(query="planner_q", deadline=_expired(1e-9))
    with pytest.raises(QueryTimeout):
        optimize_query(star_db, star_spec, "bqo", context=context)


# -- service -----------------------------------------------------------


def test_stalled_worker_cannot_outlive_its_deadline(star_db):
    # The hashed kind's fact-scan probe is the fan-out (see
    # test_chaos_oracle._parallel_service).
    service = QueryService(
        star_db, filter_kind="blocked_bloom", parallelism=4,
        morsel_rows=512, deadline_seconds=0.05,
    )
    with inject(FaultPlan().stall_at("morsel.task", seconds=0.4)) as plan:
        with pytest.raises(QueryTimeout, match="exceeded its deadline"):
            service.execute(COUNT_SQL, name="stalled")
    assert plan.total_fired == 1
    stats = service.stats()
    assert stats.timeouts == 1 and stats.failures == 1
    # The shared pool, plan cache, and filter cache all survived: the
    # same service answers the same statement correctly right after.
    retry = service.execute(COUNT_SQL)
    assert retry.scalar("cnt") == _expected_count(star_db)
    assert service.stats().timeouts == 1  # no new failures


def test_per_call_deadline_overrides_service_default(star_db):
    service = QueryService(star_db, parallelism=2, morsel_rows=512)
    with pytest.raises(QueryTimeout):
        service.execute(COUNT_SQL, deadline_seconds=1e-9)
    # Default (no deadline) still rules when no override is given, and
    # the aborted optimization was never published to the plan cache.
    answer = service.execute(COUNT_SQL)
    assert not answer.metrics.plan_cache_hit
    assert answer.scalar("cnt") == _expected_count(star_db)


def test_timeout_counted_separately_from_other_failures(star_db):
    service = QueryService(star_db)
    with pytest.raises(QueryTimeout):
        service.execute(COUNT_SQL, deadline_seconds=1e-9)
    with pytest.raises(Exception):
        service.execute("SELECT COUNT(*) AS c FROM no_such_table t")
    stats = service.stats()
    assert stats.failures == 2
    assert stats.timeouts == 1


def test_explain_reports_resilience_configuration(star_db):
    service = QueryService(star_db, deadline_seconds=2.5, degrade="serial")
    header = service.explain(COUNT_SQL)
    assert "-- resilience: deadline=2.5s" in header
    assert "degrade=serial" in header
