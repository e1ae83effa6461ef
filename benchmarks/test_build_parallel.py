"""Parallel partitioned build sides — the build-phase speedup gate.

The tentpole claim of the parallel-build PR: bitvector filter
construction (dimension-key gathers, factorization sorts, hash
scatters) runs per-morsel on the worker pool and merges on a
deterministic barrier, so the build phase of a large-dimension join
scales with workers while the published filter — and therefore every
query answer — stays byte-identical to the serial build.

Asserted:

* ``parallelism=1`` never takes the partitioned path (the serial
  engine is untouched) and ``parallelism=4`` always does;
* query results are byte-identical across parallelism levels for
  **every** registry filter kind;
* on machines with >= 4 usable cores: the metered build phase
  (``ExecutionMetrics.filter_build_seconds``, cold builds) is at least
  1.8x faster at 4 workers for the default exact filter.  The exact
  merge is algorithmically cheaper than a serial build (sorted-domain
  union + arange code set vs. two full ``np.unique`` sorts), so the
  bar is typically cleared even before thread parallelism kicks in —
  but scheduler-starved single-core runners still only get a bounded
  honesty check.

The report is written to pytest's ``tmp_path`` (exercising the writer);
the committed ``BENCH_build_parallel.json`` is regenerated only by
``python -m repro.bench --experiment build-parallel``, so a test run
never dirties the working tree.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.build_parallel import (
    run_build_parallel,
    write_build_parallel_report,
)
from repro.bench.reporting import render_table

# Full size in CI (the experiment is two tables and a handful of
# executions); scale down locally via the env knob if needed.
BUILD_SCALE = float(os.environ.get("REPRO_BUILD_SCALE", "1.0"))
MORSEL_ROWS = 16384


def test_partitioned_build_equivalence_and_speedup(benchmark, tmp_path):
    payload = benchmark.pedantic(
        run_build_parallel,
        kwargs=dict(
            dim_rows=max(int(1_500_000 * BUILD_SCALE), 1),
            fact_rows=max(int(500_000 * BUILD_SCALE), 1),
            parallelism_levels=(1, 4),
            morsel_rows=MORSEL_ROWS,
        ),
        rounds=1,
        iterations=1,
    )
    write_build_parallel_report(payload, tmp_path / "BENCH_build_parallel.json")

    print()
    for kind, entry in payload["kinds"].items():
        print(render_table(
            [
                {
                    "parallelism": level["parallelism"],
                    "build_s": level["build_seconds"],
                    "total_s": level["total_seconds"],
                    "build_speedup": level["build_speedup"],
                    "partitioned": level["partitioned_builds"],
                }
                for level in entry["levels"]
            ],
            f"Parallel filter builds — {kind}, {payload['cpu_cores']} cores",
        ))

    # Byte-identical answers across parallelism levels, per filter kind.
    assert payload["results_identical"], (
        "answer drift between serial and partitioned builds: "
        f"{payload['kinds']}"
    )
    # parallelism=1 stays the untouched serial path; 4 workers always
    # take the partitioned one (the build side is far above the
    # dispatch threshold).
    for kind, entry in payload["kinds"].items():
        for level in entry["levels"]:
            if level["parallelism"] == 1:
                assert level["partitioned_builds"] == 0, (kind, level)
            else:
                assert level["partitioned_builds"] > 0, (kind, level)

    speedup = payload["build_speedup_at_top"]
    cores = payload["cpu_cores"]
    if cores >= 4:
        # The acceptance bar: >= 1.8x build phase at 4 workers.
        assert speedup >= 1.8, (
            f"build-phase speedup {speedup:.2f}x < 1.8x on {cores} cores "
            f"(exact levels: {payload['kinds']['exact']['levels']})"
        )
    else:
        # Thread parallelism cannot beat the core count; keep the
        # partitioned path's overhead honest instead (the exact merge
        # is algorithmically cheaper, so even one core usually wins).
        assert speedup > 0.5, (
            f"partitioned build overhead too high on {cores} core(s): "
            f"{payload['kinds']['exact']['levels']}"
        )
        pytest.skip(
            f"speedup bar needs >= 4 cores (have {cores}); equivalence "
            f"and overhead asserted, build-phase speedup measured at "
            f"{speedup:.2f}x"
        )
