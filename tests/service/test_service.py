"""QueryService end-to-end: caching correctness, invalidation, concurrency."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.service.service as service_module
from repro.engine.executor import Executor
from repro.errors import ServiceClosed
from repro.filters import FILTER_KINDS
from repro.optimizer.pipelines import optimize_query
from repro.service import QueryService
from repro.sql.binder import parse_query
from repro.sql.parameterize import fingerprint_sql
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table
from repro.workloads import star
from sqlite_reference import assert_matches_sqlite
from star_statements import COLD_CONSTANTS, WARM_CONSTANTS, star_statements


def _count_sql(threshold: int) -> str:
    return (
        "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
        f"WHERE f.fk1 = d1.id AND d1.v < {threshold}"
    )


def _expected_count(db: Database, threshold: int) -> int:
    dim1 = db.table("dim1")
    fact = db.table("fact")
    selected = dim1.column("id")[dim1.column("v") < threshold]
    return int(np.isin(fact.column("fk1"), selected).sum())


@pytest.fixture()
def service(star_db) -> QueryService:
    return QueryService(star_db)


def test_same_fingerprint_different_constants_correct_results(service, star_db):
    first = service.execute(_count_sql(3))
    second = service.execute(_count_sql(7))
    assert not first.metrics.plan_cache_hit
    assert second.metrics.plan_cache_hit
    assert first.metrics.fingerprint == second.metrics.fingerprint
    assert first.scalar("cnt") == _expected_count(star_db, 3)
    assert second.scalar("cnt") == _expected_count(star_db, 7)
    assert first.scalar("cnt") != second.scalar("cnt")


def test_hit_skips_optimization(service, monkeypatch):
    optimized = []
    real = service_module.optimize_query
    monkeypatch.setattr(
        service_module, "optimize_query",
        lambda *args, **kwargs: optimized.append(args) or real(*args, **kwargs),
    )
    service.execute(_count_sql(3))
    warm = service.execute(_count_sql(4))
    assert warm.metrics.plan_cache_hit
    assert len(optimized) == 1  # the cold call only
    assert service.plan_cache.misses == 1


def test_stats_expose_cache_counters(service):
    service.execute(_count_sql(3))
    service.execute(_count_sql(5))
    service.execute(_count_sql(5))  # identical text: still one fingerprint
    stats = service.stats()
    assert stats.queries == 3
    assert stats.plan_cache_misses == 1
    assert stats.plan_cache_hits == 2
    assert 0 < stats.plan_cache_hit_rate < 1
    assert service.plan_cache.hits == 2
    assert service.plan_cache.misses == 1


def test_filter_residency_is_read_with_stats_not_per_statement(
    service, monkeypatch
):
    """Walking every cached filter and its memos is snapshot work."""
    walks = []
    resident_bytes = service.filter_cache.resident_bytes
    monkeypatch.setattr(
        service.filter_cache, "resident_bytes",
        lambda: walks.append(1) or resident_bytes(),
    )
    service.execute(_count_sql(3))
    service.execute(_count_sql(5))
    assert walks == []
    assert service.stats().filter_bytes_resident == resident_bytes() > 0
    assert "filter residency:" in service.explain(_count_sql(3))
    assert len(walks) == 2


def test_lru_eviction_bound_under_churn(star_db):
    service = QueryService(star_db, plan_cache_size=2)
    statements = [
        _count_sql(3),
        "SELECT COUNT(*) AS cnt FROM fact f, dim2 d2 "
        "WHERE f.fk2 = d2.id AND d2.w < 3",
        "SELECT SUM(f.m) AS total FROM fact f, dim1 d1 "
        "WHERE f.fk1 = d1.id AND d1.v < 3",
        "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1, dim2 d2 "
        "WHERE f.fk1 = d1.id AND f.fk2 = d2.id AND d1.v < 3",
    ]
    for sql in statements:
        service.execute(sql)
        assert len(service.plan_cache) <= 2
    assert service.plan_cache.evictions == 2
    # evicted query re-optimizes and still answers correctly
    result = service.execute(statements[0])
    assert not result.metrics.plan_cache_hit
    assert result.scalar("cnt") == _expected_count(star_db, 3)


def _fresh_db() -> Database:
    rng = np.random.default_rng(7)
    db = Database("inval_test")
    db.add_table(
        Table.from_arrays(
            "dim1",
            {"id": np.arange(50), "v": rng.integers(0, 10, 50)},
            key=("id",),
        )
    )
    db.add_table(
        Table.from_arrays(
            "fact",
            {"fk1": rng.integers(0, 50, 1000), "m": rng.normal(size=1000)},
        )
    )
    db.add_foreign_key(ForeignKey("fact", ("fk1",), "dim1", ("id",)))
    return db


def test_schema_change_invalidates_caches():
    db = _fresh_db()
    service = QueryService(db)
    service.execute(_count_sql(3))
    assert len(service.plan_cache) == 1

    db.add_table(
        Table.from_arrays("extra", {"id": np.arange(3)}, key=("id",))
    )
    result = service.execute(_count_sql(3))
    # the cached plan was dropped: this is a miss against a fresh cache
    assert not result.metrics.plan_cache_hit
    assert service.stats().invalidations == 1
    assert result.scalar("cnt") == _expected_count(db, 3)


def test_dropped_dictionaries_release_cached_filters():
    """A cached exact filter is built over the build table's dictionary;
    once the database drops that dictionary, the service's filter cache
    must not keep it alive.  The plan cache is untouched."""
    db = _fresh_db()
    service = QueryService(db)
    first = service.execute(_count_sql(3))
    assert first.metrics.filter_cache_misses == 1
    dropped = weakref.ref(db.dictionary("dim1", "id"))

    db.invalidate_dictionaries("dim1")
    second = service.execute(_count_sql(3))
    assert second.metrics.plan_cache_hit
    assert second.metrics.filter_cache_misses == 1
    assert second.scalar("cnt") == first.scalar("cnt") == _expected_count(db, 3)
    gc.collect()
    assert dropped() is None
    assert service.stats().invalidations == 0


def test_manual_invalidate_clears_both_caches():
    db = _fresh_db()
    service = QueryService(db)
    service.execute(_count_sql(3))
    assert len(service.plan_cache) == 1
    service.invalidate()
    assert len(service.plan_cache) == 0
    assert len(service.filter_cache) == 0
    assert service.stats().invalidations == 1


def test_filter_cache_shared_across_fingerprints(service):
    count_sql = _count_sql(3)
    sum_sql = (
        "SELECT SUM(f.m) AS total FROM fact f, dim1 d1 "
        "WHERE f.fk1 = d1.id AND d1.v < 3"
    )
    first = service.execute(count_sql)
    second = service.execute(sum_sql)
    assert first.metrics.fingerprint != second.metrics.fingerprint
    if first.metrics.filter_cache_misses:
        # the dim1(v < 3) filter built for the first query is reused
        assert second.metrics.filter_cache_hits >= 1


def test_run_many_matches_sequential(star_db):
    sqls = [_count_sql(t) for t in (2, 3, 4, 5, 6, 2, 3, 4)]
    sequential = [
        QueryService(star_db).execute(sql).scalar("cnt") for sql in sqls
    ]
    service = QueryService(star_db)
    concurrent = [r.scalar("cnt") for r in service.run_many(sqls, max_workers=4)]
    assert concurrent == sequential
    stats = service.stats()
    assert stats.queries == len(sqls)
    # one unique fingerprint: only the first wave of workers can miss
    # before the entry is published, so misses <= max_workers
    assert stats.plan_cache_hits >= len(sqls) - 4


def test_explain_reports_cache_state_and_plan(service):
    miss = service.explain(_count_sql(3))
    hit = service.explain(_count_sql(9))
    assert "MISS" in miss and "HIT" in hit
    assert "fingerprint" in miss
    assert "Scan(d1:dim1)" in miss
    assert "?0=9" in hit
    # explain warmed the cache for execute
    result = service.execute(_count_sql(5))
    assert result.metrics.plan_cache_hit


def test_unknown_pipeline_rejected(star_db):
    from repro.errors import ServiceError

    with pytest.raises(ServiceError):
        QueryService(star_db, pipeline="nonsense")


@pytest.mark.parametrize("kind", ["bloom", "cuckoo", "Exact"])
def test_unknown_filter_kind_rejected_at_construction(star_db, kind):
    """A kind no registry entry names fails as the service is built,
    not at the first join that builds a filter."""
    from repro.errors import ServiceError

    with pytest.raises(ServiceError, match=f"unknown filter kind '{kind}'"):
        QueryService(star_db, filter_kind=kind)


@pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
def test_each_filter_kind_answers_a_filtered_join(star_db, kind):
    """Both kinds construct, build their filter at the first join, and
    give the same count (the hashed kind's false positives are dropped
    by the join's key check)."""
    service = QueryService(star_db, filter_kind=kind)
    result = service.execute(_count_sql(3))
    assert result.metrics.filter_cache_misses == 1
    assert result.scalar("cnt") == _expected_count(star_db, 3)


def test_pipeline_override_is_part_of_cache_key(service):
    service.execute(_count_sql(3), pipeline="bqo")
    other = service.execute(_count_sql(3), pipeline="dp")
    assert not other.metrics.plan_cache_hit
    assert len(service.plan_cache) == 2


def test_service_metrics_expose_zero_copy_counters(service, star_db):
    # SUM(f.m), not COUNT(*): the count query's only column copy used to
    # be the filter build gathering d1.id values; filters are now built
    # from stored dictionary codes, so that query copies nothing at all.
    # The measure column gathered for the aggregate still counts.
    def sum_sql(threshold: int) -> str:
        return (
            "SELECT SUM(f.m) AS total FROM fact f, dim1 d1 "
            f"WHERE f.fk1 = d1.id AND d1.v < {threshold}"
        )

    first = service.execute(sum_sql(3))
    second = service.execute(sum_sql(6))
    for result in (first, second):
        assert result.metrics.dictionary_hits >= 1  # fk1 = id join
        assert result.metrics.dictionary_misses == 0
        assert result.metrics.rows_copied > 0
        assert result.metrics.bytes_gathered > 0
    stats = service.stats()
    assert stats.dictionary_hits >= 2
    assert stats.total_rows_copied > 0
    assert stats.total_bytes_gathered > 0
    # both executions share one resident dictionary per join column
    info = star_db.dictionary_cache_info()
    assert info["builds"] <= info["lookups"]


def test_explain_reports_filter_and_dictionary_caches(service):
    service.execute(_count_sql(3))
    rendered = service.explain(_count_sql(3))
    assert "filter cache:" in rendered
    assert "dictionary indexes:" in rendered


def test_run_many_concurrent_dictionary_builds(star_db):
    """Many threads racing on a cold dictionary cache agree on answers."""
    service = QueryService(star_db)
    sqls = [_count_sql(t) for t in range(2, 10)] * 3
    results = service.run_many(sqls, max_workers=8)
    expected = [_expected_count(star_db, t) for t in range(2, 10)] * 3
    assert [r.scalar("cnt") for r in results] == expected
    # Single-flight construction: exactly one build per resident column
    # despite 8 threads racing on a cold cache.
    info = star_db.dictionary_cache_info()
    assert info["builds"] == info["entries"]


def test_close_is_terminal_and_idempotent(star_db):
    """After close(), batches and single statements get the typed
    refusal; closing twice is a no-op."""
    service = QueryService(star_db)
    sqls = [_count_sql(t) for t in (2, 3, 4, 5)]
    assert all(r.ok for r in service.run_many(sqls, max_workers=2))
    service.close()
    service.close()  # idempotent
    assert service.closed
    with pytest.raises(ServiceClosed):
        service.run_many(sqls, max_workers=2)
    with pytest.raises(ServiceClosed):
        service.execute(sqls[0])


def test_close_racing_a_batch_yields_typed_slots_never_runtime_error(star_db):
    """A close() landing mid-batch must resolve every slot to either a
    real answer or a typed ServiceClosed error record — never the
    pool's opaque 'cannot schedule new futures' RuntimeError."""
    import threading

    sqls = [_count_sql(t) for t in (2, 3, 4, 5, 6, 7, 8, 9)] * 4
    for _ in range(5):  # several races: the interleaving is timing-dependent
        service = QueryService(star_db)
        service.run_many(sqls[:2], max_workers=2)  # warm the pool
        outcome = {}

        def batch(svc=service, box=outcome):
            try:
                box["results"] = svc.run_many(sqls, max_workers=2)
            except ServiceClosed:
                pass  # the whole batch arrived after close: typed raise

        runner = threading.Thread(target=batch)
        runner.start()
        service.close()
        runner.join(timeout=30.0)
        assert not runner.is_alive()
        if "results" not in outcome:
            continue  # run_many itself saw the closed service: typed raise
        for result in outcome["results"]:
            assert result.ok or isinstance(result.error, ServiceClosed), (
                f"slot resolved to {type(result.error).__name__}: "
                f"{result.error}"
            )


def test_service_context_manager_closes_the_service(star_db):
    with QueryService(star_db) as service:
        results = service.run_many([_count_sql(t) for t in (2, 3)], max_workers=2)
        assert all(r.ok for r in results)
    assert service.closed


def test_parallel_service_matches_serial(star_db):
    """Intra-query parallelism changes nothing about the answers."""
    sqls = [_count_sql(t) for t in (2, 3, 4, 5, 6)]
    serial = QueryService(star_db)
    parallel = QueryService(star_db, parallelism=4, morsel_rows=512)
    expected = [serial.execute(sql).scalar("cnt") for sql in sqls]
    observed = [parallel.execute(sql).scalar("cnt") for sql in sqls]
    assert observed == expected


def test_explain_reports_the_serial_build_phase_at_parallelism(star_db):
    """At ``parallelism > 1`` the header says filters build serially and
    how long their build phase took so far."""
    service = QueryService(star_db, parallelism=4, morsel_rows=512)
    assert "filters built serially, 0.00 ms build phase" in service.explain(
        _count_sql(3)
    )
    service.execute(_count_sql(3))
    (line,) = [
        line for line in service.explain(_count_sql(3)).splitlines()
        if line.startswith("-- parallel execution:")
    ]
    assert "filters built serially" in line
    assert "0.00 ms build phase" not in line
    assert service.stats().total_filter_build_seconds > 0.0


def test_explain_reports_parallel_configuration(star_db):
    serial = QueryService(star_db)
    rendered = serial.explain(_count_sql(3))
    assert "parallelism=1" in rendered and "(serial)" in rendered
    parallel = QueryService(star_db, parallelism=4, morsel_rows=8192)
    rendered = parallel.explain(_count_sql(3))
    assert "parallelism=4" in rendered
    assert "morsel_rows=8192" in rendered
    assert "(serial)" not in rendered


@pytest.fixture(scope="module")
def star_replay():
    """The 20 star statements through one service, cold constants then
    warm ones, with the optimizer searches of each pass counted."""
    database = star.build_database(scale=0.1)
    service = QueryService(database)
    searches = []
    real = service_module.optimize_query
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            service_module, "optimize_query",
            lambda *args, **kwargs: searches.append(args) or real(*args, **kwargs),
        )
        cold = [
            service.execute(sql, name=f"cold_{i}")
            for i, sql in enumerate(star_statements(COLD_CONSTANTS))
        ]
        cold_searches = len(searches)
        warm = [
            service.execute(sql, name=f"warm_{i}")
            for i, sql in enumerate(star_statements(WARM_CONSTANTS))
        ]
    return {
        "database": database,
        "stats": service.stats(),
        "cold": cold,
        "warm": warm,
        "cold_searches": cold_searches,
        "warm_searches": len(searches) - cold_searches,
    }


def test_warm_star_replay_runs_no_optimizer_search(star_replay):
    """The 20 star statements replayed with fresh constants: the warm
    pass is answered from the plan cache without one optimizer search,
    and its answers match one-shot planning of the same SQL."""
    database = star_replay["database"]
    cold_sqls = star_statements(COLD_CONSTANTS)
    warm_sqls = star_statements(WARM_CONSTANTS)
    # 20 distinct shapes, and the constants do not perturb them.
    fingerprints = {fingerprint_sql(sql).text for sql in cold_sqls}
    assert len(fingerprints) == 20
    assert fingerprints == {fingerprint_sql(sql).text for sql in warm_sqls}

    assert star_replay["cold_searches"] == 20
    assert star_replay["warm_searches"] == 0
    stats = star_replay["stats"]
    assert stats.plan_cache_misses == 20
    assert stats.plan_cache_hits == 20
    cold, warm = star_replay["cold"], star_replay["warm"]
    assert sum(r.metrics.plan_cache_hit for r in cold) == 0
    assert sum(r.metrics.plan_cache_hit for r in warm) == 20

    executor = Executor(database)
    for i in (0, 7, 19):
        spec = parse_query(database, warm_sqls[i], f"check_{i}")
        fresh = executor.execute(optimize_query(database, spec, "bqo").plan)
        for label in fresh.aggregates:
            assert float(warm[i].scalar(label)) == float(fresh.scalar(label))


@pytest.mark.parametrize("index", range(20))
def test_warm_star_statement_answers_as_sqlite_from_the_cached_plan(
    star_replay, index
):
    """Each warm statement reuses the plan its cold twin cached, bound
    to the new constants, and answers as stdlib ``sqlite3`` does."""
    database = star_replay["database"]
    cold, warm = star_replay["cold"][index], star_replay["warm"][index]
    sql = star_statements(WARM_CONSTANTS)[index]
    assert not cold.metrics.plan_cache_hit
    assert warm.metrics.plan_cache_hit
    assert warm.metrics.fingerprint == cold.metrics.fingerprint
    spec = parse_query(database, sql, f"warm_{index}")
    assert_matches_sqlite(database, sql, warm.result, spec)
