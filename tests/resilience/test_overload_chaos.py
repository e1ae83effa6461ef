"""Overload chaos: stalled workers under admission pressure, breaker
trips from injected faults, and byte-identical recovery.

The scenario the admission tier exists for: execution slots wedge (a
``morsel.task`` stall), traffic keeps arriving, and the service must
refuse the overflow in microseconds with *typed* sheds instead of
queueing unboundedly — then, once the stall clears, serve again with
answers byte-identical to a serial oracle.  A second scenario drives
one query shape into repeated injected failures until its breaker
opens, proves other shapes are unaffected, and closes the breaker
through the half-open probe.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import MorselTaskError, QueryShed, ReproError
from repro.service import AdmissionConfig, AsyncQueryService, QueryService
from repro.sql.parameterize import fingerprint_sql
from repro.testing import FaultPlan, InjectedFault, inject

COUNT_SQL = (
    "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
    "WHERE f.fk1 = d1.id AND d1.v < 4"
)
SUM_SQL = (
    "SELECT SUM(f.m) AS total FROM fact f, dim1 d1, dim2 d2 "
    "WHERE f.fk1 = d1.id AND f.fk2 = d2.id AND d1.v < 5 AND d2.w < 6"
)


def _oracle_bytes(star_db, sql):
    service = QueryService(star_db)
    result = service.execute(sql).result
    service.close()
    return {
        label: (values.dtype, values.tobytes())
        for label, values in result.aggregates.items()
    }


def _assert_matches_oracle(answer, oracle):
    assert answer.result.aggregates.keys() == oracle.keys()
    for label, (dtype, payload) in oracle.items():
        actual = answer.result.aggregates[label]
        assert actual.dtype == dtype
        assert actual.tobytes() == payload, f"{label} diverged"


def test_stalled_workers_shed_overflow_typed_then_recover(star_db):
    """Wedged slots + pressure => queue sheds; after the stall, byte-
    identical answers on the same service."""
    oracle = _oracle_bytes(star_db, COUNT_SQL)
    # Every execution slot runs into a long stall: parallelism > 1 and
    # the hashed kind, whose fact-scan filter probe fans out, so the
    # ``morsel.task`` site is on the executed path.
    plan = FaultPlan(seed=11)
    for invocation in range(4):
        plan.stall_at("morsel.task", invocation=invocation, seconds=0.4)

    async def run():
        svc = AsyncQueryService(
            star_db,
            max_concurrency=2,
            admission=AdmissionConfig(
                queue_capacity=2,
                # Full queue for the wedged "normal" traffic: this test
                # wants exactly 2 running + 2 queued before sheds start.
                watermarks={"interactive": 1.0, "normal": 1.0, "batch": 0.5},
            ),
            filter_kind="blocked_bloom",
            parallelism=2,
            morsel_rows=512,
        )
        with inject(plan):
            wedged = [
                asyncio.ensure_future(svc.execute(COUNT_SQL, f"wedged_{i}"))
                for i in range(4)  # 2 stall in slots, 2 fill the queue
            ]
            await asyncio.sleep(0.1)
            # Exactly the wedged capacity is admitted, with no shed yet.
            before_pressure = svc.admission_stats()
            sheds = []
            for i in range(6):
                try:
                    await svc.execute(COUNT_SQL, f"pressure_{i}")
                except QueryShed as shed:
                    sheds.append(shed)
            wedged_results = await asyncio.gather(*wedged)
        # Stall cleared: the same service serves again, answers intact.
        recovered = await svc.execute(COUNT_SQL, "recovered")
        stats = svc.admission_stats()
        await svc.close()
        return wedged_results, before_pressure, sheds, recovered, stats

    wedged_results, before_pressure, sheds, recovered, stats = asyncio.run(run())
    assert plan.total_fired == 4
    assert before_pressure.admitted == 4  # 2 running + 2 queued
    assert before_pressure.sheds == 0
    assert len(sheds) == 6  # capacity was wedged: all pressure refused
    assert all(s.reason == "queue" for s in sheds)
    assert all(s.retry_after is not None for s in sheds)
    assert stats.shed_queue == 6
    for answer in wedged_results:  # stalls delay, never corrupt
        _assert_matches_oracle(answer, oracle)
    _assert_matches_oracle(recovered, oracle)


def test_repeated_faults_trip_the_breaker_then_half_open_recovers(star_db):
    """A fingerprint that keeps failing is cut off; the probe heals it."""
    oracle = _oracle_bytes(star_db, SUM_SQL)
    failures = 4
    # Every morsel task raises while the plan is installed: each doomed
    # run fails deterministically regardless of how many morsels it has.
    plan = FaultPlan(seed=5).raise_with_probability("morsel.task", 1.0)

    async def run():
        svc = AsyncQueryService(
            star_db,
            max_concurrency=2,
            admission=AdmissionConfig(
                breaker_window=failures,
                breaker_min_samples=failures,
                breaker_failure_threshold=0.5,
                breaker_cooldown_seconds=0.25,
            ),
            filter_kind="blocked_bloom",
            parallelism=2,
            morsel_rows=512,
        )
        with inject(plan):
            for i in range(failures):
                with pytest.raises(ReproError) as excinfo:
                    await svc.execute(SUM_SQL, f"doomed_{i}")
                exc = excinfo.value
                assert isinstance(exc, (InjectedFault, MorselTaskError))
                if isinstance(exc, MorselTaskError):
                    assert isinstance(exc.__cause__, InjectedFault)
            # The breaker is open: admission refuses before execution,
            # so the still-armed fault plan is never even reached.
            with pytest.raises(QueryShed) as shedinfo:
                await svc.execute(SUM_SQL, "cut_off")
            assert shedinfo.value.reason == "breaker"
            assert shedinfo.value.retry_after is not None
        # Faults cleared, the breaker still open for its fingerprint: a
        # different query shape is not collateral damage.
        assert (
            svc.admission.breaker_state(fingerprint_sql(SUM_SQL).digest)
            == "open"
        )
        unaffected = await svc.execute(COUNT_SQL, "unaffected")
        assert unaffected.ok
        await asyncio.sleep(0.3)  # cooldown elapses
        probe = await svc.execute(SUM_SQL, "probe")
        after = await svc.execute(SUM_SQL, "after")
        stats = svc.admission_stats()
        await svc.close()
        return probe, after, stats

    probe, after, stats = asyncio.run(run())
    assert stats.breaker_trips == 1
    assert stats.shed_breaker == 1
    assert stats.failures == failures
    _assert_matches_oracle(probe, oracle)
    _assert_matches_oracle(after, oracle)
