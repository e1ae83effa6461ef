"""Plan quality — estimator q-error and top-k early exit.

The acceptance gate for the plan-quality harness
(``repro.bench.plan_quality``):

* **q-error bound** — per-operator q-errors (estimated vs. observed
  cardinality) over the TPC-DS-lite subset stay under a fixed median
  bound in both cascades integration modes (``full`` and ``shallow``).
  The bound is generous — the estimator is deliberately imperfect (the
  paper's Section 7.4 attributes regressions to exactly this gap) — but
  a blow-up here means statistics, push-down accounting, or the
  executor's row counting broke;
* **top-k early exit** — clustered ``ORDER BY ... LIMIT`` scans prune
  morsels via zone-map bounds (``morsels_pruned > 0``) and remain
  byte-identical to the full sort.

The report is written to pytest's ``tmp_path`` (exercising the writer);
the committed ``BENCH_plan_quality.json`` is regenerated only by
``python -m repro.bench --experiment plan-quality``, so a test run
never dirties the working tree.
"""

from __future__ import annotations

import os

from repro.bench.plan_quality import (
    DEFAULT_SCALE,
    run_plan_quality,
    write_plan_quality_report,
)
from repro.bench.reporting import render_table

SCALE = DEFAULT_SCALE * float(os.environ.get("REPRO_PLAN_QUALITY_SCALE", "1.0"))

# Median per-operator q-error each mode must stay under.  Today's
# estimator sits near 1.2; 8x leaves room for noise and new queries
# while still catching order-of-magnitude regressions.
MEDIAN_Q_ERROR_BOUND = 8.0


def test_plan_quality_q_error_and_topk_exit(benchmark, tmp_path):
    payload = benchmark.pedantic(
        run_plan_quality,
        kwargs=dict(scale=SCALE),
        rounds=1,
        iterations=1,
    )
    write_plan_quality_report(payload, tmp_path / "BENCH_plan_quality.json")

    print()
    for mode, report in payload["mode_reports"].items():
        print(render_table(
            [
                {
                    "query": entry["query"],
                    "operators": entry["operators"],
                    "median_q": entry["median_q_error"],
                    "max_q": entry["max_q_error"],
                }
                for entry in report["per_query"]
            ],
            f"Plan quality — mode {mode!r}, scale {payload['scale']}",
        ))

    for mode, report in payload["mode_reports"].items():
        assert report["operators"] > 0, f"no operators recorded for {mode}"
        assert report["median_q_error"] <= MEDIAN_Q_ERROR_BOUND, (
            f"{mode}: median q-error {report['median_q_error']} exceeds "
            f"{MEDIAN_Q_ERROR_BOUND} (per query: {report['per_query']})"
        )
        # Every estimate must be finite and at least 1.0 by construction.
        assert all(
            record["q_error"] >= 1.0 for record in report["records"]
        ), f"{mode}: q-error below 1.0 — the metric is broken"

    topk = payload["topk_early_exit"]
    assert topk["all_identical"], (
        f"top-k early exit drifted from the full sort: {topk['queries']}"
    )
    assert topk["total_morsels_pruned"] > 0, (
        f"clustered top-k scans pruned nothing: {topk['queries']}"
    )
    for query in topk["queries"]:
        assert query["rows_out"] > 0, query
