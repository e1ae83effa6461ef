"""Warm execution hot path — zero-copy engine vs. eager-materialization.

The paper's premise is that bitvector filters are *cheap* relative to
the joins they prune; the seed engine inflated their measured overhead
with two engine artifacts the paper's cost model never charges for:

* ``Relation.gather`` copied **every** column at **every** filter
  application — O(columns x rows) per mask;
* ``ExactFilter.contains`` re-ran ``np.unique`` joint factorization
  over the build keys on **every** probe.

This benchmark replays the same 20-query star workload as
``test_service_throughput.py`` through two executors sharing one
database: the default zero-copy engine (selection-vector relations,
table-resident dictionary indexes, indexed filter probes) and the
``eager_materialization=True`` baseline that reproduces the seed
behaviour.  Both run warm (plans optimized once, dictionaries and
filter caches hot, one untimed warmup pass).

Asserted:

* answers are byte-identical across the two engines;
* ``ExecutionMetrics`` copy counters prove filter applications no
  longer gather untouched columns: the lazy engine copies only join/
  aggregate-relevant columns (strictly fewer rows than eager), and a
  probe query gathers nothing beyond the aggregate's measure column.

The lazy/eager wall-clock ratio is printed and recorded as a test
property, not asserted (it used to be gated at >= 2x): wall-clock gates
flake on a busy box (ROADMAP 6b), and ``perf/`` measures the real thing.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.reporting import render_table
from repro.bench.scaling import star_workload_plans as _star_workload_plans
from repro.engine.executor import Executor
from repro.filters.cache import BitvectorFilterCache
from repro.optimizer.pipelines import optimize_query
from repro.sql.binder import parse_query
from repro.workloads import star

from conftest import BENCH_SCALE


def _run_all(executor: Executor, plans: list) -> list:
    return [executor.execute(plan) for plan in plans]


def _best_of(executor: Executor, plans: list, rounds: int = 7) -> float:
    """Best-of-N wall clock: the min is robust to scheduler noise on
    shared CI runners; the deterministic copy/dictionary counter
    assertions below do not depend on timing at all."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        _run_all(executor, plans)
        best = min(best, time.perf_counter() - started)
    return best


def test_exec_hot_path_speedup(benchmark, record_property):
    database = star.build_database(scale=BENCH_SCALE)
    plans = _star_workload_plans(database)

    lazy = Executor(database, filter_cache=BitvectorFilterCache(64))
    eager = Executor(
        database,
        eager_materialization=True,
        filter_cache=BitvectorFilterCache(64),
    )

    # Warmup: builds dictionary indexes and both filter caches, and
    # checks byte-identical answers between the two engines.
    lazy_results = _run_all(lazy, plans)
    eager_results = _run_all(eager, plans)
    for lazy_result, eager_result in zip(lazy_results, eager_results):
        assert lazy_result.aggregates.keys() == eager_result.aggregates.keys()
        for label in lazy_result.aggregates:
            assert np.array_equal(
                lazy_result.aggregates[label], eager_result.aggregates[label]
            ), f"answer mismatch on {label}"

    lazy_seconds = benchmark.pedantic(
        _best_of, args=(lazy, plans), rounds=1, iterations=1
    )
    eager_seconds = _best_of(eager, plans)
    speedup = eager_seconds / max(lazy_seconds, 1e-9)

    lazy_rows = sum(r.metrics.rows_copied for r in lazy_results)
    eager_rows = sum(r.metrics.rows_copied for r in eager_results)
    lazy_bytes = sum(r.metrics.bytes_gathered for r in lazy_results)
    eager_bytes = sum(r.metrics.bytes_gathered for r in eager_results)
    dictionary_hits = sum(r.metrics.dictionary_hits for r in lazy_results)
    dictionary_misses = sum(r.metrics.dictionary_misses for r in lazy_results)

    rows = [
        {"engine": "lazy (zero-copy)", "execute_s": round(lazy_seconds, 4),
         "rows_copied": lazy_rows, "bytes_gathered": lazy_bytes},
        {"engine": "eager (seed)", "execute_s": round(eager_seconds, 4),
         "rows_copied": eager_rows, "bytes_gathered": eager_bytes},
        {"engine": "speedup", "execute_s": round(speedup, 2),
         "rows_copied": "", "bytes_gathered": ""},
    ]
    print()
    print(render_table(rows, "Execution hot path — 20-query star workload, warm"))
    print(f"dictionary encodings: {dictionary_hits} hits / "
          f"{dictionary_misses} fallbacks")

    record_property("lazy_vs_eager_speedup", round(speedup, 2))

    # Copy accounting: the lazy engine must gather strictly less.
    assert 0 < lazy_rows < eager_rows
    assert 0 < lazy_bytes < eager_bytes
    # Join keys resolve through the dictionary indexes on this workload
    # (fallbacks only on empty inputs, which encode nothing).
    assert dictionary_hits > 0
    assert dictionary_misses == 0


def test_filter_application_gathers_only_touched_columns():
    """Exact copy-counter accounting on one two-table probe.

    For ``SUM(lo_revenue)`` joined against ASIA customers, the lazy
    engine materializes exactly one column: ``lo.lo_revenue``, once, at
    joined cardinality (the aggregate).

    Everything else runs on views and stored dictionary codes: the
    predicate column ``c_region`` and the probe key are read from
    identity scan views (zero-copy), the filter is built from the
    surviving customers' ``c_custkey`` *codes* (this used to be a
    second term, ``c_custkey`` values gathered at post-predicate
    cardinality for the filter build), the surviving fact rows become
    a selection vector, and the join — here absorbed by its own exact
    filter — reads no key values at all.
    """
    database = star.build_database(scale=0.1)
    sql = (
        "SELECT SUM(lo.lo_revenue) AS rev FROM lineorder lo, customer c "
        "WHERE lo.lo_custkey = c.c_custkey AND c.c_region = 'ASIA'"
    )
    plan = optimize_query(database, parse_query(database, sql, "probe"), "bqo").plan

    result = Executor(database).execute(plan)
    metrics = result.metrics

    scan_nodes = {
        node.label: node.node_id
        for node in plan.walk()
        if "customer" in node.label or "lineorder" in node.label
    }
    asia_customers = next(
        metrics.rows_out(node_id)
        for label, node_id in scan_nodes.items()
        if "customer" in label
    )
    joined_rows = next(
        node.rows_out for node in metrics.nodes if node.kind == "join"
    )
    assert asia_customers > 0 and joined_rows > 0

    assert metrics.rows_copied == joined_rows, (
        f"lazy engine copied {metrics.rows_copied} rows, expected exactly "
        f"{joined_rows} (lo_revenue@{joined_rows}; {asia_customers} "
        "customers' keys are read as codes); untouched columns were gathered"
    )
    assert metrics.dictionary_hits == 1  # one single-column join key

    # The eager baseline on the same plan copies every needed column at
    # every mask and merge — strictly more.
    eager = Executor(database, eager_materialization=True).execute(plan)
    assert metrics.rows_copied < eager.metrics.rows_copied
    assert metrics.bytes_gathered < eager.metrics.bytes_gathered
    assert float(result.scalar("rev")) == float(eager.scalar("rev"))
