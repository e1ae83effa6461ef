"""Filter builds across parallelism levels — equivalence and who fans out.

Bloom-kind filter construction (dimension-key gathers, hash scatters)
runs per-morsel on the worker pool and merges on a deterministic
barrier.  The exact kind used to as well, and this file used to gate
its build-phase speedup (>= 1.8x at 4 workers, > 0.5x below 4 cores).
Exact filters over dictionary-backed keys are now built in one pass
over the build rows' stored dictionary codes
(``ExactFilter.from_dictionary_codes``: one presence scatter, no
factorization), which is cheaper than the partitioned build's merge
alone — so at every parallelism level they stay on one thread, and a
"parallel / serial" ratio for them measures two runs of the same code.

Asserted (all deterministic):

* query results are byte-identical across parallelism levels for
  **every** registry filter kind;
* ``parallelism=1`` never takes the partitioned path, for any kind;
* at ``parallelism=4`` the Bloom kinds always partition (the build side
  is far above the dispatch threshold) and the exact kind never does.

The measured build-phase seconds and ratios are printed, not asserted:
wall-clock gates do not belong in tier-1 (ROADMAP 6b).

The report is written to pytest's ``tmp_path`` (exercising the writer);
the committed ``BENCH_build_parallel.json`` is regenerated only by
``python -m repro.bench --experiment build-parallel``, so a test run
never dirties the working tree.
"""

from __future__ import annotations

import os

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
    for kind, entry in payload["kinds"].items():
        for level in entry["levels"]:
            if level["parallelism"] == 1 or kind == "exact":
                assert level["partitioned_builds"] == 0, (kind, level)
            else:
                assert level["partitioned_builds"] > 0, (kind, level)

    print(
        f"exact build phase, serial / {payload['top_parallelism']} workers: "
        f"{payload['build_speedup_at_top']:.2f}x (same code-space build at "
        f"both levels; {payload['cpu_cores']} cores)"
    )
