"""Batch failure isolation and bounded retry.

``run_many`` used to propagate the first worker's exception and
silently abandon every later future.  Now each statement resolves to a
:class:`ServiceResult` — failures carry ``error`` in their own slot —
and a :class:`RetryPolicy` can absorb whitelisted transient faults
with seeded decorrelated-jitter backoff.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import QueryService, RetryPolicy
from repro.errors import MorselTaskError, QueryTimeout
from repro.testing import FaultPlan, InjectedFault, TransientFault, inject


def _count_sql(threshold: int) -> str:
    return (
        "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
        f"WHERE f.fk1 = d1.id AND d1.v < {threshold}"
    )


def _expected_count(db, threshold: int) -> int:
    dim1, fact = db.table("dim1"), db.table("fact")
    selected = dim1.column("id")[dim1.column("v") < threshold]
    return int(np.isin(fact.column("fk1"), selected).sum())


BAD_SQL = "SELECT COUNT(*) AS cnt FROM no_such_table t"


@pytest.mark.parametrize("max_workers", [1, 4])
def test_one_failure_never_discards_siblings(star_db, max_workers):
    service = QueryService(star_db)
    thresholds = [2, None, 4, 6, 8]  # statement 2 of 5 is broken
    sqls = [
        BAD_SQL if t is None else _count_sql(t) for t in thresholds
    ]
    results = service.run_many(sqls, max_workers=max_workers)

    assert len(results) == 5
    broken = results[1]
    assert not broken.ok
    assert broken.result is None
    assert broken.error is not None
    assert broken.metrics.error.startswith(type(broken.error).__name__)
    assert broken.num_rows == 0
    with pytest.raises(Exception, match="failed"):
        broken.scalar("cnt")

    # Results 1, 3, 4, 5 all arrived, in order, with correct answers.
    for i, threshold in enumerate(thresholds):
        if threshold is None:
            continue
        assert results[i].ok
        assert results[i].metrics.query == f"batch_{i}"
        assert results[i].scalar("cnt") == _expected_count(
            star_db, threshold
        )
    assert service.stats().failures == 1


def test_batch_deadline_failure_isolated_per_slot(star_db):
    service = QueryService(star_db, deadline_seconds=1e-9)
    healthy = QueryService(star_db)
    results = service.run_many([_count_sql(3)], max_workers=1)
    assert isinstance(results[0].error, QueryTimeout)
    assert healthy.run_many([_count_sql(3)], max_workers=1)[0].ok


def test_morsel_failure_reports_query_and_row_range(star_db):
    """Satellite: a worker exception is wrapped with enough context to
    find the morsel — query name and row range — with the original
    exception chained as the cause."""
    # The hashed kind's fact-scan probe is the fan-out (see
    # test_chaos_oracle._parallel_service).
    service = QueryService(
        star_db, filter_kind="blocked_bloom", parallelism=4,
        morsel_rows=512, deadline_seconds=60.0,
    )
    with inject(FaultPlan().raise_at("morsel.task", invocation=1)):
        with pytest.raises(
            MorselTaskError,
            match=r"morsel task for query 'doomed' rows \[\d+:\d+\) failed",
        ) as excinfo:
            service.execute(_count_sql(4), name="doomed")
    assert isinstance(excinfo.value.__cause__, InjectedFault)


def test_retry_policy_absorbs_whitelisted_transients(star_db):
    policy = RetryPolicy(
        max_attempts=3, base_seconds=0.001, cap_seconds=0.005
    )
    service = QueryService(star_db, retry_policy=policy)
    plan = FaultPlan().raise_at(
        "cache.publish", invocation=0, exc_type=TransientFault
    )
    with inject(plan):
        results = service.run_many([_count_sql(3)], max_workers=1)
    assert plan.total_fired == 1  # attempt 1 died, attempt 2 clean
    answer = results[0]
    assert answer.ok
    assert answer.metrics.retries == 1
    assert answer.scalar("cnt") == _expected_count(star_db, 3)
    assert service.stats().retries == 1


def test_retry_policy_refuses_non_whitelisted_faults(star_db):
    service = QueryService(
        star_db,
        retry_policy=RetryPolicy(max_attempts=3, base_seconds=0.001),
    )
    plan = FaultPlan().raise_at("cache.publish", exc_type=InjectedFault)
    with inject(plan):
        results = service.run_many([_count_sql(3)], max_workers=1)
    assert plan.total_fired == 1  # exactly one attempt: not retryable
    assert isinstance(results[0].error, InjectedFault)
    assert results[0].metrics.retries == 0


def test_retry_policy_gives_up_after_max_attempts(star_db):
    service = QueryService(
        star_db,
        retry_policy=RetryPolicy(max_attempts=3, base_seconds=0.001),
    )
    plan = FaultPlan()
    for invocation in range(3):
        plan.raise_at(
            "cache.publish", invocation=invocation, exc_type=TransientFault
        )
    with inject(plan):
        results = service.run_many([_count_sql(3)], max_workers=1)
    assert plan.total_fired == 3  # every allowed attempt was consumed
    assert isinstance(results[0].error, TransientFault)
    # The failed slot still reports the two retries it spent.
    assert results[0].metrics.retries == 2
    assert service.stats().retries == 2


def test_refused_retry_keeps_the_retries_already_spent(star_db):
    service = QueryService(
        star_db,
        retry_policy=RetryPolicy(max_attempts=3, base_seconds=0.001),
    )
    plan = (
        FaultPlan()
        .raise_at("cache.publish", invocation=0, exc_type=TransientFault)
        .raise_at("cache.publish", invocation=1, exc_type=InjectedFault)
    )
    with inject(plan):
        results = service.run_many([_count_sql(3)], max_workers=1)
    assert plan.total_fired == 2  # the second fault is not retryable
    assert isinstance(results[0].error, InjectedFault)
    assert results[0].metrics.retries == 1
    assert service.stats().retries == 1


def test_backoff_timeout_keeps_the_retries_already_spent(star_db):
    """Every backoff is 0.5 s under a 0.8 s slot deadline: the first
    fits, the second cannot, so the slot times out after one retry."""
    service = QueryService(
        star_db,
        deadline_seconds=0.8,
        retry_policy=RetryPolicy(
            max_attempts=5, base_seconds=0.5, cap_seconds=0.5
        ),
    )
    plan = FaultPlan()
    for invocation in range(2):
        plan.raise_at(
            "cache.publish", invocation=invocation, exc_type=TransientFault
        )
    with inject(plan):
        results = service.run_many([_count_sql(3)], max_workers=1)
    assert plan.total_fired == 2
    assert isinstance(results[0].error, QueryTimeout)
    assert results[0].metrics.retries == 1
    assert service.stats().retries == 1


def test_retry_never_applies_to_resilience_errors():
    """Deadline/budget/cancel failures are deliberate enforcement, not
    transient conditions: the whitelist walk refuses them even when a
    whitelisted type appears in the same cause chain."""
    policy = RetryPolicy(retryable=(TransientFault, RuntimeError))
    timeout = QueryTimeout("query 'q' exceeded its deadline")
    assert not policy.is_retryable(timeout)
    chained = RuntimeError("wrapper")
    chained.__cause__ = timeout
    assert not policy.is_retryable(chained)
    assert policy.is_retryable(RuntimeError("flaky io"))
    wrapped = MorselTaskError("morsel task failed")
    wrapped.__cause__ = TransientFault("blip")
    assert policy.is_retryable(wrapped)


def test_retry_backoff_is_seeded_and_bounded():
    policy = RetryPolicy(
        max_attempts=4, base_seconds=0.01, cap_seconds=0.05, seed=21
    )

    def run():
        sleeps = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 4:
                raise TransientFault("blip")
            return "done"

        outcome, retries = policy.call(flaky, sleep=sleeps.append)
        return outcome, retries, sleeps

    first = run()
    second = run()
    assert first == second  # same seed, same jitter schedule
    outcome, retries, sleeps = first
    assert outcome == "done" and retries == 3
    assert len(sleeps) == 3
    assert all(0.0 < s <= 0.05 for s in sleeps)


def test_retry_refuses_to_sleep_past_the_deadline():
    """A backoff the remaining budget cannot cover raises QueryTimeout
    at once (chaining the attempt's failure) instead of burning the
    deadline asleep."""
    from repro.engine.context import Deadline

    policy = RetryPolicy(
        max_attempts=5, base_seconds=0.2, cap_seconds=0.5, seed=3
    )
    sleeps = []

    def always_flaky():
        raise TransientFault("blip")

    with pytest.raises(QueryTimeout) as excinfo:
        policy.call(
            always_flaky, sleep=sleeps.append, deadline=Deadline.after(0.05)
        )
    assert sleeps == []  # never slept: the first backoff already broke it
    assert isinstance(excinfo.value.__cause__, TransientFault)


def test_retry_sleeps_normally_under_a_generous_deadline():
    from repro.engine.context import Deadline

    policy = RetryPolicy(
        max_attempts=3, base_seconds=0.001, cap_seconds=0.002, seed=3
    )
    attempts = {"n": 0}

    def flaky_once():
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise TransientFault("blip")
        return "done"

    sleeps = []
    outcome, retries = policy.call(
        flaky_once, sleep=sleeps.append, deadline=Deadline.after(60.0)
    )
    assert (outcome, retries) == ("done", 1)
    assert len(sleeps) == 1


def test_service_retry_consults_the_slot_deadline(star_db):
    """run_many threads one per-slot deadline through execution AND
    retry backoff: a transient fault whose backoff exceeds the budget
    surfaces as QueryTimeout, not as a sleep past the deadline."""
    service = QueryService(
        star_db,
        deadline_seconds=0.5,
        retry_policy=RetryPolicy(
            max_attempts=3, base_seconds=1.0, cap_seconds=2.0
        ),
    )
    plan = FaultPlan(seed=9).raise_at(
        "cache.publish", invocation=0, exc_type=TransientFault
    )
    started = time.perf_counter()
    with inject(plan):
        results = service.run_many(
            [_count_sql(3), _count_sql(4)], max_workers=2
        )
    elapsed = time.perf_counter() - started
    errors = [r.error for r in results if not r.ok]
    assert len(errors) == 1
    assert isinstance(errors[0], QueryTimeout)
    assert elapsed < 1.0  # it refused the 1-2s backoff outright
    # The sibling statement still answered.
    assert any(r.ok for r in results)
