"""AsyncQueryService: awaitable execution, bounded concurrency, shedding.

Two kinds of tests: answer-correctness against a real database (the
async path must be a pure concurrency wrapper — byte-identical
answers), and overload behavior against a controllable fake service
whose executions block on events, so queue states are reached
deterministically instead of by racing real queries.

No pytest-asyncio in the toolchain: each test drives its own loop
with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

import repro.sql.parameterize as parameterize
import repro.sql.parser as parser
from repro.errors import QueryShed, ServiceClosed, ServiceError
from repro.obs import Tracer
from repro.service import (
    AdmissionConfig,
    AsyncQueryService,
    QueryService,
    RetryPolicy,
    ServiceResult,
)
from repro.sql.parameterize import fingerprint_sql
from repro.testing import FaultPlan, InjectedFault, TransientFault, inject

COUNT_SQL = (
    "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
    "WHERE f.fk1 = d1.id AND d1.v < {threshold}"
)
OTHER_SQL = (
    "SELECT COUNT(*) AS cnt FROM fact f, dim2 d2 "
    "WHERE f.fk2 = d2.id AND d2.w < 4"
)


class RecordingTracer:
    def __init__(self) -> None:
        self.events = []

    def event(self, name, **fields) -> None:
        self.events.append((name, fields))


class FakeService:
    """Stands in for QueryService: blocks, fails, and records on demand.

    ``block`` holds every execution until released, so tests park a
    known number of queries in the executor and the admission queue.
    """

    def __init__(self, tracer=None) -> None:
        self.telemetry = None
        self.tracer = tracer
        self.deadline_seconds = None
        self.block = threading.Event()
        self.block.set()  # unblocked by default
        self.started = []
        self.finished = []
        self.fail_names: set[str] = set()
        self.closed = False
        self._lock = threading.Lock()

    def _slot(self, sql, name, pipeline=None, deadline=None, fingerprint=None):
        """The one method the facade calls: answers (the statement's
        name) and failures both come back as records."""
        with self._lock:
            self.started.append(name)
        self.block.wait(timeout=10.0)
        if name in self.fail_names:
            error = ValueError(f"{name} was told to fail")
            return ServiceResult(result=None, metrics=None, error=error)
        with self._lock:
            self.finished.append(name)
        return ServiceResult(result=name, metrics=None)

    def close(self) -> None:
        self.closed = True


def _async_svc(fake, **kwargs):
    kwargs.setdefault("max_concurrency", 1)
    return AsyncQueryService(service=fake, **kwargs)


# ----------------------------------------------------------------------
# Correctness on a real database
# ----------------------------------------------------------------------


def test_concurrent_async_answers_match_the_sync_service(star_db):
    sqls = [COUNT_SQL.format(threshold=t) for t in (2, 4, 6, 8)] * 3
    sync = QueryService(star_db)
    expected = [sync.execute(sql).scalar("cnt") for sql in sqls]
    sync.close()

    async def run():
        async with AsyncQueryService(star_db, max_concurrency=3) as svc:
            results = await asyncio.gather(
                *(svc.execute(sql) for sql in sqls)
            )
            snapshot = svc.telemetry_snapshot()
            stats = svc.admission_stats()
        return results, snapshot, stats

    results, snapshot, stats = asyncio.run(run())
    assert [r.scalar("cnt") for r in results] == expected
    assert stats.admitted == len(sqls)
    assert stats.sheds == 0
    assert snapshot["queue_depth"]["count"] == len(sqls)
    assert snapshot["admission_wait_seconds"]["count"] == len(sqls)


def test_async_execute_tokenizes_each_statement_once(star_db, monkeypatch):
    """Admission fingerprints the statement on the event loop; the
    service reuses that fingerprint instead of lexing the SQL again."""
    lexed = []
    for module in (parameterize, parser):
        tokenize = module.tokenize

        def counted(sql, _tokenize=tokenize):
            lexed.append(sql)
            return _tokenize(sql)

        monkeypatch.setattr(module, "tokenize", counted)
    tracer = Tracer()
    warm, hit = COUNT_SQL.format(threshold=2), COUNT_SQL.format(threshold=6)

    async def run():
        service = QueryService(star_db, tracer=tracer)
        async with AsyncQueryService(service=service) as svc:
            # A miss parses the fingerprint's tokens; nothing re-lexes.
            missed = await svc.execute(warm)
            missed_lexed = list(lexed)
            lexed.clear()
            outcome = await svc.execute(hit)
        service.close()
        return missed, missed_lexed, outcome

    missed, missed_lexed, outcome = asyncio.run(run())
    assert not missed.metrics.plan_cache_hit
    assert missed_lexed == [warm]
    assert outcome.metrics.plan_cache_hit
    assert lexed == [hit]
    events = tracer.spans("plan_cache")
    assert events[-1].attributes["fingerprint"] == fingerprint_sql(hit).digest


def _expected_count(db, threshold: int) -> int:
    dim1, fact = db.table("dim1"), db.table("fact")
    selected = dim1.column("id")[dim1.column("v") < threshold]
    return int(np.isin(fact.column("fk1"), selected).sum())


def _facade_run(service, plan, sql):
    """One statement through an AsyncQueryService over ``service``,
    with ``plan`` armed; returns (result or raised error, admission)."""

    async def run():
        async with AsyncQueryService(service=service, max_concurrency=1) as svc:
            with inject(plan):
                try:
                    outcome = await svc.execute(sql)
                except Exception as exc:
                    outcome = exc
            return outcome, svc.admission_stats()

    return asyncio.run(run())


def test_async_facade_retries_whitelisted_transients(star_db):
    service = QueryService(
        star_db,
        retry_policy=RetryPolicy(
            max_attempts=3, base_seconds=0.001, cap_seconds=0.005
        ),
    )
    plan = FaultPlan().raise_at(
        "cache.publish", invocation=0, exc_type=TransientFault
    )
    outcome, admission = _facade_run(
        service, plan, COUNT_SQL.format(threshold=3)
    )
    assert plan.total_fired == 1  # attempt 1 died, attempt 2 clean
    assert outcome.ok
    assert outcome.metrics.retries == 1
    assert outcome.scalar("cnt") == _expected_count(star_db, 3)
    assert service.stats().retries == 1
    assert (admission.completed, admission.failures) == (1, 0)


def test_async_facade_raises_non_retryable_faults_typed(star_db):
    service = QueryService(
        star_db,
        retry_policy=RetryPolicy(max_attempts=3, base_seconds=0.001),
    )
    plan = FaultPlan().raise_at("cache.publish", exc_type=InjectedFault)
    outcome, admission = _facade_run(
        service, plan, COUNT_SQL.format(threshold=3)
    )
    assert plan.total_fired == 1  # exactly one attempt: not retryable
    assert isinstance(outcome, InjectedFault)
    assert service.stats().retries == 0
    assert service.stats().failures == 1
    assert (admission.completed, admission.failures) == (0, 1)


def test_constructor_requires_exactly_one_source(star_db):
    with pytest.raises(ServiceError):
        AsyncQueryService()
    with pytest.raises(ServiceError):
        AsyncQueryService(star_db, service=FakeService())
    with pytest.raises(ServiceError):
        AsyncQueryService(service=FakeService(), parallelism=2)


# ----------------------------------------------------------------------
# Overload behavior against the fake service
# ----------------------------------------------------------------------


def test_queue_full_sheds_typed_with_retry_hint():
    fake = FakeService()
    fake.block.clear()

    async def run():
        svc = _async_svc(
            fake, admission=AdmissionConfig(queue_capacity=1)
        )
        running = asyncio.ensure_future(svc.execute(OTHER_SQL, "running"))
        await asyncio.sleep(0.05)  # let it occupy the one slot
        queued = asyncio.ensure_future(svc.execute(OTHER_SQL, "queued"))
        await asyncio.sleep(0.05)
        with pytest.raises(QueryShed) as excinfo:
            await svc.execute(OTHER_SQL, "refused")
        assert excinfo.value.reason == "queue"
        assert excinfo.value.retry_after is not None
        fake.block.set()
        assert (await running).result == "running"
        assert (await queued).result == "queued"
        stats = svc.admission_stats()
        await svc.close()
        return stats

    stats = asyncio.run(run())
    assert stats.shed_queue == 1
    assert stats.completed == 2


def test_interactive_dispatches_before_earlier_batch():
    fake = FakeService()
    fake.block.clear()

    async def run():
        svc = _async_svc(fake)
        head = asyncio.ensure_future(svc.execute(OTHER_SQL, "head"))
        await asyncio.sleep(0.05)
        batch = asyncio.ensure_future(
            svc.execute(OTHER_SQL, "bg", priority="batch")
        )
        await asyncio.sleep(0.02)
        urgent = asyncio.ensure_future(
            svc.execute(OTHER_SQL, "urgent", priority="interactive")
        )
        await asyncio.sleep(0.02)
        fake.block.set()
        await asyncio.gather(head, batch, urgent)
        await svc.close()

    asyncio.run(run())
    assert fake.started[0] == "head"
    assert fake.started.index("urgent") < fake.started.index("bg")


def test_quota_exhaustion_sheds_and_traces():
    tracer = RecordingTracer()
    fake = FakeService(tracer=tracer)

    async def run():
        svc = _async_svc(
            fake,
            admission=AdmissionConfig(quota_rate=0.001, quota_burst=1.0),
        )
        await svc.execute(OTHER_SQL, "first", client="greedy")
        with pytest.raises(QueryShed) as excinfo:
            await svc.execute(OTHER_SQL, "second", client="greedy")
        await svc.close()
        return excinfo.value

    shed = asyncio.run(run())
    assert shed.reason == "quota"
    assert shed.retry_after > 0
    assert ("resilience.shed", {
        "query": "second", "reason": "quota", "retry_after": shed.retry_after,
    }) in tracer.events


def test_deadline_expired_while_queued_sheds_at_dispatch():
    fake = FakeService()
    fake.block.clear()

    async def run():
        svc = _async_svc(fake)
        head = asyncio.ensure_future(svc.execute(OTHER_SQL, "head"))
        await asyncio.sleep(0.05)
        doomed = asyncio.ensure_future(
            svc.execute(OTHER_SQL, "doomed", deadline_seconds=0.05)
        )
        await asyncio.sleep(0.2)  # the queued deadline expires
        fake.block.set()
        await head
        with pytest.raises(QueryShed) as excinfo:
            await doomed
        stats = svc.admission_stats()
        await svc.close()
        return excinfo.value, stats

    shed, stats = asyncio.run(run())
    assert shed.reason == "deadline"
    assert stats.shed_deadline == 1
    assert "doomed" not in fake.started  # never burned an executor slot


def test_failing_fingerprint_trips_the_breaker_and_recovers():
    fake = FakeService()

    async def run():
        svc = _async_svc(
            fake,
            admission=AdmissionConfig(
                breaker_window=4,
                breaker_min_samples=4,
                breaker_failure_threshold=0.5,
                breaker_cooldown_seconds=0.1,
            ),
        )
        for i in range(4):
            name = f"fail_{i}"
            fake.fail_names.add(name)
            with pytest.raises(ValueError):
                await svc.execute(OTHER_SQL, name)
        with pytest.raises(QueryShed) as excinfo:
            await svc.execute(OTHER_SQL, "blocked")
        assert excinfo.value.reason == "breaker"
        # A different statement shape is not collateral damage.
        await svc.execute(COUNT_SQL.format(threshold=3), "other_shape")
        await asyncio.sleep(0.15)  # cooldown elapses
        result = await svc.execute(OTHER_SQL, "probe")
        stats = svc.admission_stats()
        await svc.close()
        return result, stats

    result, stats = asyncio.run(run())
    assert result.result == "probe"
    assert stats.breaker_trips == 1
    assert stats.shed_breaker == 1


def test_close_cancels_queued_typed_and_drains_inflight():
    fake = FakeService()
    fake.block.clear()

    async def run():
        svc = _async_svc(fake)
        inflight = asyncio.ensure_future(svc.execute(OTHER_SQL, "inflight"))
        await asyncio.sleep(0.05)
        queued = asyncio.ensure_future(svc.execute(OTHER_SQL, "queued"))
        await asyncio.sleep(0.05)
        closer = asyncio.ensure_future(svc.close())
        with pytest.raises(ServiceClosed):
            await queued
        fake.block.set()
        assert (await inflight).result == "inflight"  # drained, not killed
        await closer
        with pytest.raises(ServiceClosed):
            await svc.execute(OTHER_SQL, "late")
        await svc.close()  # idempotent
        return svc.admission_stats()

    stats = asyncio.run(run())
    assert stats.cancelled_on_close == 1
    assert stats.completed == 1
    assert not fake.closed  # adopted service stays with its owner


def test_owned_service_is_closed_with_the_facade(star_db):
    async def run():
        svc = AsyncQueryService(star_db, max_concurrency=1)
        await svc.execute(COUNT_SQL.format(threshold=3))
        await svc.close()
        return svc.service

    inner = asyncio.run(run())
    assert inner.closed
    with pytest.raises(ServiceClosed):
        inner.execute(COUNT_SQL.format(threshold=3))
