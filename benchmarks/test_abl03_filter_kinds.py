"""Ablation 3 — filter implementations: exact vs blocked Bloom.

The paper's analysis assumes no false positives; its implementation uses
SQL Server's hash bitmaps.  This ablation executes the BQO plans under
each filter implementation and compares CPU and answers:

* answers must be identical (filters never drop matching tuples, and
  joins re-verify keys, so false positives cost work but not
  correctness);
* the blocked Bloom kind admits false positives, so its plans process at
  least as many tuples as the exact filter's.
"""

from __future__ import annotations

from repro.bench.harness import run_workload
from repro.bench.reporting import render_table
from repro.filters import FILTER_KINDS


def _run_kinds(db, queries) -> list[dict]:
    rows = []
    checksums: dict[str, dict] = {}
    for kind in sorted(FILTER_KINDS):
        result = run_workload(
            "tpcds", db, queries, pipelines=("bqo",), filter_kind=kind
        )
        checksums[kind] = {
            query: result.run(query, "bqo").checksum
            for query in result.queries()
        }
        rows.append(
            {
                "filter": kind,
                "total_cpu": round(result.total_cpu("bqo")),
                "total_tuples": sum(
                    result.total_tuples_by_kind("bqo").values()
                ),
            }
        )
    # answers identical across filter kinds
    assert checksums["blocked_bloom"] == checksums["exact"], (
        "blocked_bloom changed query answers"
    )
    return rows


def test_abl03_filter_kinds(tpcds_workload, benchmark):
    db, queries = tpcds_workload
    rows = benchmark.pedantic(
        _run_kinds, args=(db, queries[:12]), rounds=1, iterations=1
    )
    print()
    print(render_table(rows, "Ablation: bitvector filter implementations"))

    by_kind = {row["filter"]: row for row in rows}
    # False positives can only let extra tuples through...
    assert (
        by_kind["blocked_bloom"]["total_tuples"]
        >= by_kind["exact"]["total_tuples"]
    )
    # ...but at 12 bits/key the overhead stays small.
    assert (
        by_kind["blocked_bloom"]["total_cpu"]
        <= by_kind["exact"]["total_cpu"] * 1.25
    )
