"""Chaos suite: injected faults at every registered site, then a
differential-oracle proof that shared state survived.

The property under test is a negative: *no* failure at *any* internal
boundary — pool submission, a morsel task, a filter build, a cache
publication — may poison the shared worker pool, plan cache,
or bitvector filter cache.  Each scenario injects a deterministic
fault into one query, asserts the failure surfaces as a typed engine
error, and then proves the very next query on the *same* service is
byte-identical to a fresh serial executor's answer.
"""

from __future__ import annotations

import threading

import pytest

from repro import QueryService
from repro.engine.executor import Executor
from repro.errors import MorselTaskError, QueryTimeout, ReproError
from repro.filters import FILTER_KINDS
from repro.optimizer.pipelines import optimize_query
from repro.plan.nodes import HashJoinNode
from repro.sql.binder import parse_query
from repro.testing import FaultPlan, InjectedFault, inject
from repro.testing.faults import ENGINE_SITES


COUNT_SQL = (
    "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
    "WHERE f.fk1 = d1.id AND d1.v < 4"
)
SUM_SQL = (
    "SELECT SUM(f.m) AS total FROM fact f, dim1 d1, dim2 d2 "
    "WHERE f.fk1 = d1.id AND f.fk2 = d2.id AND d1.v < 5 AND d2.w < 6"
)


def _parallel_service(star_db) -> QueryService:
    # The hashed kind probes the fact scan row by row, so its filter
    # probe — the one operator that fans out — splits into morsels;
    # exact filters on a whole fact scan are answered by row bitmaps on
    # the calling thread and would reach no morsel site.
    return QueryService(
        star_db, filter_kind="blocked_bloom", parallelism=4, morsel_rows=512
    )


def _assert_byte_identical(answer, star_db, sql):
    """The recovered answer must match a fresh, serial, cache-cold run."""
    oracle = QueryService(star_db).execute(sql)
    assert answer.result.aggregates.keys() == oracle.result.aggregates.keys()
    for label, expected in oracle.result.aggregates.items():
        actual = answer.result.aggregates[label]
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes(), f"{label} diverged"


# Engine sites only: the ``service.admit`` / ``service.dequeue`` sites
# fire on the admission-controlled async path, exercised by
# ``tests/resilience/test_overload_chaos.py``.
@pytest.mark.parametrize("site", ENGINE_SITES)
@pytest.mark.parametrize("sql", [COUNT_SQL, SUM_SQL])
def test_fault_at_every_site_is_typed_and_recoverable(star_db, site, sql):
    service = _parallel_service(star_db)
    with inject(FaultPlan(seed=3).raise_at(site, invocation=0)) as plan:
        with pytest.raises(ReproError) as excinfo:
            service.execute(sql, name="chaos")
    assert plan.total_fired == 1, f"site {site} never fired"

    # Typed, not mangled: the raw injected fault, or the morsel wrapper
    # with the injected fault chained as its cause.
    exc = excinfo.value
    assert isinstance(exc, (InjectedFault, MorselTaskError))
    if isinstance(exc, MorselTaskError):
        assert isinstance(exc.__cause__, InjectedFault)

    # Recovery: same service, same statement, clean answer.
    after = service.execute(sql)
    assert after.ok
    _assert_byte_identical(after, star_db, sql)
    assert service.stats().failures == 1


# A fact-side predicate narrows the fact scan, so exact filters take the
# probe path — and its fan-out — instead of whole-table row bitmaps.
EXACT_PROBE_SQLS = {
    "count": COUNT_SQL + " AND f.fk2 < 90",
    "sum": SUM_SQL + " AND f.fk1 < 95",
}


@pytest.mark.parametrize("site", ["pool.submit", "morsel.task"])
@pytest.mark.parametrize("sql", sorted(EXACT_PROBE_SQLS))
def test_exact_probe_fan_out_fault_is_typed_and_recoverable(
    star_db, site, sql
):
    sql = EXACT_PROBE_SQLS[sql]
    service = QueryService(star_db, parallelism=4, morsel_rows=512)
    with inject(FaultPlan(seed=3).raise_at(site, invocation=0)) as plan:
        with pytest.raises(ReproError) as excinfo:
            service.execute(sql, name="chaos")
    assert plan.total_fired == 1, f"site {site} never fired"
    exc = excinfo.value
    assert isinstance(exc, (InjectedFault, MorselTaskError))
    if isinstance(exc, MorselTaskError):
        assert isinstance(exc.__cause__, InjectedFault)
    after = service.execute(sql)
    assert after.ok
    _assert_byte_identical(after, star_db, sql)


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
@pytest.mark.parametrize(
    "site", ["filter.build", "cache.publish"]
)
def test_failed_builds_never_poison_the_filter_cache(
    star_db, site, filter_kind, parallelism
):
    service = QueryService(
        star_db, filter_kind=filter_kind, parallelism=parallelism,
        morsel_rows=512,
    )
    with inject(FaultPlan().raise_at(site, invocation=0)) as plan:
        with pytest.raises(ReproError):
            service.execute(COUNT_SQL)
    assert plan.total_fired == 1, f"site {site} never fired"
    # Nothing half-built was published.
    assert len(service.filter_cache) == 0
    # The next run rebuilds from scratch and publishes...
    rebuilt = service.execute(COUNT_SQL)
    assert rebuilt.ok and rebuilt.metrics.filter_cache_misses > 0
    assert len(service.filter_cache) > 0
    # ...and the run after that hits the (healthy) cached filter.
    warm = service.execute(COUNT_SQL)
    assert warm.metrics.filter_cache_hits > 0
    _assert_byte_identical(warm, star_db, COUNT_SQL)


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
def test_build_site_fires_once_per_filter_build(star_db, filter_kind, parallelism):
    """Every filter build passes ``filter.build`` exactly once:
    the exact kind's code-space build and the hashed kind's value build,
    serial and parallel alike."""
    plan = optimize_query(
        star_db, parse_query(star_db, SUM_SQL, "sum"), "bqo_allfilters"
    ).plan
    builds = sum(
        node.created_bitvector is not None
        for node in plan.walk()
        if isinstance(node, HashJoinNode)
    )
    executor = Executor(
        star_db, filter_kind=filter_kind, parallelism=parallelism,
        morsel_rows=512,
    )
    with inject(FaultPlan()) as faults:
        executor.execute(plan)
    assert builds >= 2
    assert faults.count("filter.build") == builds


def test_stalled_morsel_under_deadline_recovers_byte_identical(star_db):
    service = QueryService(
        star_db, filter_kind="blocked_bloom", parallelism=4,
        morsel_rows=512, deadline_seconds=0.05,
    )
    with inject(FaultPlan().stall_at("morsel.task", seconds=0.4)) as plan:
        with pytest.raises(QueryTimeout):
            service.execute(SUM_SQL, name="stalled")
    assert plan.total_fired == 1
    after = service.execute(SUM_SQL)
    _assert_byte_identical(after, star_db, SUM_SQL)


def test_repeated_chaos_leaks_no_pool_threads(star_db):
    """The shared morsel pool is grow-only by design; chaos rounds must
    not spawn replacement threads or strand workers."""
    service = _parallel_service(star_db)
    service.execute(COUNT_SQL)  # warm the shared pool to full width
    baseline = threading.active_count()
    for seed in range(3):
        with inject(FaultPlan(seed).raise_at("morsel.task", invocation=0)):
            with pytest.raises(MorselTaskError):
                service.execute(COUNT_SQL)
        recovered = service.execute(COUNT_SQL)
        assert recovered.ok
    assert threading.active_count() <= baseline


def test_seeded_chaos_fires_identically_run_to_run(star_db):
    """End-to-end determinism: the same (seed, workload) pair fires the
    same faults at the same invocations, both rounds failing and both
    services recovering to the same bytes."""

    def round_trip(plan):
        service = _parallel_service(star_db)
        with inject(plan):
            with pytest.raises(ReproError):
                service.execute(SUM_SQL, name="rounds")
        return service.execute(SUM_SQL)

    first_plan = FaultPlan(seed=17).raise_with_probability(
        "morsel.task", probability=0.5, max_fires=1
    )
    second_plan = FaultPlan(seed=17).raise_with_probability(
        "morsel.task", probability=0.5, max_fires=1
    )
    first = round_trip(first_plan)
    second = round_trip(second_plan)
    assert [(r.site, r.invocation) for r in first_plan.fired] == [
        (r.site, r.invocation) for r in second_plan.fired
    ]
    assert (
        first.result.aggregates["total"].tobytes()
        == second.result.aggregates["total"].tobytes()
    )
