"""Executor-level parallel build sides: partitioned filter construction.

The executor fans each Bloom-kind filter build out per-morsel and merges
on a deterministic barrier; ``parallelism=1`` must never touch that
path, and at any parallelism the results must match the serial engine
byte for byte — for every filter kind, including build sides that are
filtered relations (index-array selections, where the per-morsel key
gathers happen on the workers).

The exact kind over dictionary-backed keys (every key here) no longer
partitions: it is built in one pass over the build rows' stored
dictionary codes (``ExactFilter.from_dictionary_codes``), which costs
less than the partitioned build's merge alone — so its assertions below
pin "never fans out" where they used to pin "fans out".
"""

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro.engine.executor import Executor
from repro.expr.expressions import Comparison, col, lit
from repro.filters import FILTER_KINDS
from repro.filters.cache import BitvectorFilterCache
from repro.plan.builder import attach_aggregate, build_right_deep
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.query.spec import Aggregate, JoinPredicate, QuerySpec, RelationRef
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table


@pytest.fixture(autouse=True)
def _tiny_parallel_threshold(monkeypatch):
    """Force morsel splits (and partitioned builds) on test-sized data."""
    monkeypatch.setattr(executor_module, "_MIN_PARALLEL_ROWS", 64)
    monkeypatch.setattr("repro.storage.partition.MIN_MORSEL_ROWS", 16)


def _database(seed: int) -> Database:
    rng = np.random.default_rng(seed)
    n_dim, n_fact = 6_000, 3_000  # dimension bigger than fact: build-bound
    database = Database(f"pbuild_{seed}")
    database.add_table(
        Table.from_arrays(
            "dim",
            {
                "id": np.arange(n_dim),
                "attr": rng.integers(0, 50, n_dim),
                "tag": rng.choice(
                    np.array(["x", "y", "z"], dtype=object), n_dim
                ),
            },
            key=("id",),
        )
    )
    database.add_table(
        Table.from_arrays(
            "fact",
            {
                "fk": rng.integers(0, n_dim, n_fact),
                "m": np.round(rng.normal(size=n_fact), 6),
            },
        )
    )
    database.add_foreign_key(ForeignKey("fact", ("fk",), "dim", ("id",)))
    return database


def _plan(database, predicate=True):
    spec = QuerySpec(
        name="q",
        relations=(RelationRef("f", "fact"), RelationRef("d", "dim")),
        join_predicates=(JoinPredicate("f", ("fk",), "d", ("id",)),),
        local_predicates=(
            {"d": Comparison("<", col("d", "attr"), lit(35))}
            if predicate
            else {}
        ),
        aggregates=(
            Aggregate("count", label="cnt"),
            Aggregate("sum", col("f", "m"), label="total"),
        ),
    )
    graph = JoinGraph(spec, database.catalog)
    plan = push_down_bitvectors(build_right_deep(graph, ["f", "d"]))
    return attach_aggregate(plan, spec)


@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
@pytest.mark.parametrize("with_predicate", [True, False])
def test_partitioned_build_matches_serial(filter_kind, with_predicate):
    """Identity and filtered build sides, every kind, byte-identical."""
    database = _database(1)
    plan = _plan(database, predicate=with_predicate)
    serial = Executor(database, filter_kind=filter_kind)
    parallel = Executor(
        database, filter_kind=filter_kind, parallelism=4, morsel_rows=256
    )
    serial_result = serial.execute(plan)
    parallel_result = parallel.execute(plan)
    for label in serial_result.aggregates:
        assert (
            parallel_result.aggregates[label].tobytes()
            == serial_result.aggregates[label].tobytes()
        ), (filter_kind, with_predicate, label)
    if filter_kind == "exact":
        # Code-space build: one serial pass at every parallelism.
        assert parallel_result.metrics.filter_builds_parallel == 0
        assert parallel_result.metrics.filter_partials_built == 0
    else:
        # The partitioned path actually ran (and was merged from several
        # per-morsel partials), while the serial engine never saw it.
        assert parallel_result.metrics.filter_builds_parallel == 1
        assert parallel_result.metrics.filter_partials_built >= 2
    assert serial_result.metrics.filter_builds_parallel == 0
    assert serial_result.metrics.filter_partials_built == 0


def test_parallelism_one_never_partitions():
    database = _database(2)
    plan = _plan(database)
    executor = Executor(database, parallelism=1, morsel_rows=256)
    metrics = executor.execute(plan).metrics
    assert metrics.filter_builds_parallel == 0
    assert metrics.filter_partials_built == 0


def test_build_phase_is_metered():
    database = _database(3)
    plan = _plan(database)
    executor = Executor(database, parallelism=4, morsel_rows=256)
    first = executor.execute(plan).metrics
    assert first.filter_build_seconds > 0.0


def _cold_then_warm(filter_kind):
    database = _database(4)
    plan = _plan(database)
    executor = Executor(
        database, filter_kind=filter_kind,
        filter_cache=BitvectorFilterCache(8), parallelism=4, morsel_rows=256,
    )
    return executor.execute(plan).metrics, executor.execute(plan).metrics


def test_cached_filter_skips_the_build_phase():
    """A filter-cache hit pays no build: the metered build phase stays
    zero."""
    cold, warm = _cold_then_warm("exact")
    # Exact builds run in code space and never partition (module doc);
    # this used to assert 1.
    assert cold.filter_builds_parallel == 0
    assert cold.filter_build_seconds > 0.0
    assert warm.filter_cache_hits == 1
    assert warm.filter_build_seconds == 0.0


def test_cached_partitioned_filter_builds_no_partials():
    """The same for a kind that does fan out: the hit constructs no
    partials."""
    cold, warm = _cold_then_warm("bloom")
    assert cold.filter_builds_parallel == 1
    assert cold.filter_partials_built >= 2
    assert warm.filter_cache_hits == 1
    assert warm.filter_builds_parallel == 0
    assert warm.filter_partials_built == 0
    assert warm.filter_build_seconds == 0.0


def test_partitioned_and_serial_builds_share_cache_entries():
    """A filter built partitioned must be reusable by a serial executor
    (and vice versa): the cache key ignores how the filter was built
    because the artifacts are equivalent."""
    database = _database(5)
    plan = _plan(database)
    cache = BitvectorFilterCache(8)
    parallel = Executor(
        database, filter_cache=cache, parallelism=4, morsel_rows=256
    )
    serial = Executor(database, filter_cache=cache)
    parallel_result = parallel.execute(plan)
    serial_result = serial.execute(plan)
    assert serial_result.metrics.filter_cache_hits == 1
    for label in serial_result.aggregates:
        assert (
            parallel_result.aggregates[label].tobytes()
            == serial_result.aggregates[label].tobytes()
        )
