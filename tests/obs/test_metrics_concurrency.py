"""Metrics under concurrency: snapshots never tear, folds count once."""

from __future__ import annotations

import threading

import pytest

from repro.engine.metrics import ExecutionMetrics
from repro.service import QueryService

_SQL = (
    "SELECT COUNT(*) AS cnt FROM fact f, dim1 d1 "
    "WHERE f.fk1 = d1.id AND d1.v < {threshold}"
)


_COUNTERS = (
    "rows_copied",
    "bytes_gathered",
    "selection_bytes",
    "filter_cache_hits",
    "filter_cache_misses",
    "dictionary_hits",
    "dictionary_misses",
    "morsels_pruned",
    "rows_skipped",
    "filter_build_seconds",
)


def test_counter_lists_cover_every_counter():
    counters = {
        name for name, value in vars(ExecutionMetrics()).items()
        if not name.startswith("_") and isinstance(value, (int, float))
    }
    assert counters == set(_COUNTERS)


def test_add_wall_accumulates_only_on_known_nodes():
    metrics = ExecutionMetrics()
    record = metrics.node(7, "HashJoin", "join")
    metrics.add_wall(7, 0.5)
    metrics.add_wall(7, 0.25)
    metrics.add_wall(99, 1.0)  # unknown node: silently ignored
    assert record.wall_seconds == pytest.approx(0.75)


def test_concurrent_executes_never_tear_service_stats(star_db):
    """stats() snapshots taken *during* a concurrent burst must be
    internally consistent and monotonic — no torn or backwards counters."""
    service = QueryService(star_db, parallelism=2)
    executes, observers = 6, 2
    threshold_counts = 4
    done = threading.Event()
    failures: list[str] = []

    def run_queries(worker: int) -> None:
        for round_index in range(threshold_counts):
            service.execute(
                _SQL.format(threshold=1 + (worker + round_index) % 9),
                name=f"w{worker}_{round_index}",
            )

    def watch() -> None:
        last_queries = 0
        while not done.is_set():
            stats = service.stats()
            if stats.queries < last_queries:
                failures.append("queries went backwards")
            last_queries = stats.queries
            if stats.plan_cache_hits + stats.plan_cache_misses != stats.queries:
                failures.append(
                    f"torn snapshot: {stats.plan_cache_hits}+"
                    f"{stats.plan_cache_misses} != {stats.queries}"
                )
            # Telemetry records before the fold, so its count may run
            # at most one in-flight query ahead per executor thread —
            # but never behind what the folded stats already claim.
            if stats.telemetry["execute_seconds"]["count"] < stats.queries:
                failures.append("telemetry behind folded stats")

    runners = [
        threading.Thread(target=run_queries, args=(worker,))
        for worker in range(executes)
    ]
    watchers = [threading.Thread(target=watch) for _ in range(observers)]
    for thread in watchers + runners:
        thread.start()
    for thread in runners:
        thread.join()
    done.set()
    for thread in watchers:
        thread.join()

    assert not failures
    final = service.stats()
    assert final.queries == executes * threshold_counts
    assert final.plan_cache_hits + final.plan_cache_misses == final.queries
    assert final.telemetry["execute_seconds"]["count"] == final.queries
    assert final.total_wall_seconds >= final.total_execute_seconds > 0


def test_run_many_folds_every_slot_exactly_once(star_db):
    service = QueryService(star_db, parallelism=2)
    sqls = [_SQL.format(threshold=1 + i % 7) for i in range(12)]
    results = service.run_many(sqls, max_workers=4)
    assert all(result.ok for result in results)
    stats = service.stats()
    assert stats.queries == len(sqls)
    assert stats.telemetry["execute_seconds"]["count"] == len(sqls)
    assert stats.total_wall_seconds == pytest.approx(
        sum(result.metrics.wall_seconds for result in results), rel=0.25
    )
