"""Build-side experiment: filter builds across parallelism levels.

At ``parallelism > 1`` the executor builds each Bloom-kind filter from
per-morsel partials merged on a deterministic barrier (see
:meth:`repro.engine.executor.Executor._build_join_filter`), so the
published filter stays byte-equivalent to a serial build.  The exact
kind over dictionary-backed keys does not partition at any level: it is
built in one pass over the build rows' stored dictionary codes
(:meth:`repro.filters.exact.ExactFilter.from_dictionary_codes`), which
costs less than the partitioned build's merge alone.

The workload is one large-dimension star join (the dimension is bigger
than the fact table — the Amdahl case morsel-parallel probing alone
cannot help): every execution rebuilds the join's filter cold (no
filter cache), and the *build phase* is metered separately via
``ExecutionMetrics.filter_build_seconds``.  Every registry filter kind
runs at every parallelism level; answers must be byte-identical across
levels for each kind (the partitioned-build contract — drift is a
correctness bug, not noise).  ``build_speedup`` is the measured
serial / parallel build-phase ratio per kind, reported and never gated.

Used by ``benchmarks/test_build_parallel.py`` (asserting equivalence
and which kinds partition) and by the CLI::

    python -m repro.bench --experiment build-parallel \
        --output BENCH_build_parallel.json

so the build-phase trajectory accumulates in-repo as a JSON artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import available_cores
from repro.engine.executor import Executor
from repro.filters.registry import FILTER_KINDS
from repro.plan.builder import attach_aggregate, build_right_deep
from repro.plan.pushdown import push_down_bitvectors
from repro.expr.expressions import Comparison, col, lit
from repro.query.joingraph import JoinGraph
from repro.query.spec import Aggregate, JoinPredicate, QuerySpec, RelationRef
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table

# Large dimension, smaller fact: the build pass (insert 60% of the
# dimension keys) dominates, which is the regime the partitioned build
# targets.
DEFAULT_DIM_ROWS = 1_500_000
DEFAULT_FACT_ROWS = 500_000

# The dimension's local predicate keeps this fraction of its rows, so
# the filter is built over a reduced-but-still-large key set.
_BUILD_FRACTION = 0.6


def build_dimension_database(
    dim_rows: int = DEFAULT_DIM_ROWS,
    fact_rows: int = DEFAULT_FACT_ROWS,
    seed: int = 11,
) -> Database:
    """One big dimension + one fact referencing it uniformly.

    Keys are integers (the decision-support case): the Bloom kinds'
    build-side kernels — fancy-index gathers, hashing ufuncs — release
    the GIL, which is where a partitioned build can gain.
    """
    rng = np.random.default_rng(seed)
    database = Database("build_parallel")
    database.add_table(
        Table.from_arrays(
            "big_dim",
            {
                "id": np.arange(dim_rows),
                "attr": rng.integers(0, 100, dim_rows),
            },
            key=("id",),
        )
    )
    database.add_table(
        Table.from_arrays(
            "fact",
            {
                "fk": rng.integers(0, dim_rows, fact_rows),
                "m": rng.normal(size=fact_rows).round(6),
            },
        ),
        validate_key=False,
    )
    database.add_foreign_key(ForeignKey("fact", ("fk",), "big_dim", ("id",)))
    return database


def build_parallel_plan(database: Database):
    """The large-dimension join, dimension forced onto the build side.

    Constructed directly (not through cost-based selection) so the
    join always creates its bitvector: the experiment measures build
    mechanics, and must keep measuring them even as the optimizer's
    thresholds move.
    """
    cut = int(100 * _BUILD_FRACTION)
    spec = QuerySpec(
        name="build_parallel",
        relations=(
            RelationRef("f", "fact"),
            RelationRef("d", "big_dim"),
        ),
        join_predicates=(JoinPredicate("f", ("fk",), "d", ("id",)),),
        local_predicates={
            "d": Comparison("<", col("d", "attr"), lit(cut)),
        },
        aggregates=(
            Aggregate("count", label="cnt"),
            Aggregate("sum", col("f", "m"), label="total"),
        ),
    )
    graph = JoinGraph(spec, database.catalog)
    plan = push_down_bitvectors(build_right_deep(graph, ["f", "d"]))
    return attach_aggregate(plan, spec)


def _aggregate_bytes(result) -> tuple:
    return tuple(
        (label, values.tobytes())
        for label, values in sorted(result.aggregates.items())
    )


def run_build_parallel(
    dim_rows: int = DEFAULT_DIM_ROWS,
    fact_rows: int = DEFAULT_FACT_ROWS,
    parallelism_levels: tuple[int, ...] = (1, 4),
    morsel_rows: int = 16384,
    rounds: int = 3,
) -> dict:
    """Measure the filter build phase at each parallelism level.

    Every (filter kind, parallelism) combination executes the plan with
    *no* filter cache — each execution pays a cold build — after one
    untimed warmup that populates dictionaries, zone maps, and the
    table morsel cache.  Per level the best-of-N build-phase seconds
    (``filter_build_seconds``) and whole-query seconds are reported;
    ``build_speedup`` anchors on the ``parallelism=1`` level.  Answers
    are compared byte-for-byte across levels per kind.
    """
    database = build_dimension_database(dim_rows, fact_rows)
    plan = build_parallel_plan(database)
    kinds: dict[str, dict] = {}
    for kind in sorted(FILTER_KINDS):
        measured: list[dict] = []
        reference_bytes = None
        results_identical = True
        for parallelism in parallelism_levels:
            executor = Executor(
                database,
                filter_kind=kind,
                parallelism=parallelism,
                morsel_rows=morsel_rows,
            )
            warm = executor.execute(plan)
            if reference_bytes is None:
                reference_bytes = _aggregate_bytes(warm)
            elif _aggregate_bytes(warm) != reference_bytes:
                results_identical = False
            best_build = float("inf")
            best_total = float("inf")
            builds_parallel = 0
            for _ in range(rounds):
                started = time.perf_counter()
                result = executor.execute(plan)
                total = time.perf_counter() - started
                best_total = min(best_total, total)
                best_build = min(
                    best_build, result.metrics.filter_build_seconds
                )
                builds_parallel = result.metrics.filter_builds_parallel
            measured.append(
                {
                    "parallelism": parallelism,
                    "build_seconds": round(best_build, 6),
                    "total_seconds": round(best_total, 6),
                    "partitioned_builds": builds_parallel,
                }
            )
        baseline = next(
            (
                level["build_seconds"]
                for level in measured
                if level["parallelism"] == 1
            ),
            measured[0]["build_seconds"],
        )
        for level in measured:
            level["build_speedup"] = round(
                baseline / max(level["build_seconds"], 1e-9), 3
            )
        kinds[kind] = {
            "levels": measured,
            "results_identical": results_identical,
        }

    def _speedup_at(kind: str, parallelism: int) -> float:
        levels = kinds[kind]["levels"]
        entry = next(
            (
                level
                for level in levels
                if level["parallelism"] == parallelism
            ),
            levels[-1],
        )
        return entry["build_speedup"]

    top_level = max(parallelism_levels)
    return {
        "experiment": "build_parallel",
        "workload": "large-dimension star join (cold filter builds)",
        "dim_rows": dim_rows,
        "fact_rows": fact_rows,
        "build_fraction": _BUILD_FRACTION,
        "morsel_rows": morsel_rows,
        "rounds": rounds,
        "parallelism_levels": list(parallelism_levels),
        "cpu_cores": available_cores(),
        "kinds": kinds,
        "build_speedup_at_top": _speedup_at("exact", top_level),
        "top_parallelism": top_level,
        "results_identical": all(
            entry["results_identical"] for entry in kinds.values()
        ),
    }


def write_build_parallel_report(payload: dict, path: str | Path) -> Path:
    """Write the payload as JSON (the in-repo perf artifact)."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
