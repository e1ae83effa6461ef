"""Parallel-vs-serial equivalence: morsel-driven execution must be
byte-identical to the serial engine for every filter kind (exact,
blocked bloom) and for LIP-style adaptive filter ordering.

Only the bitvector filter probe fans out, and its decomposition is
order-preserving by construction — per-morsel ``flatnonzero`` offsets
concatenate to the serial selection — so the assertion is exact byte
equality, not approximate agreement.  The parallel threshold is
monkeypatched down so the randomized workloads (small on purpose) still
split into many morsels per probe.
"""

import threading

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro.bench.harness import _checksum
from repro.engine.executor import Executor
from repro.engine.metrics import ExecutionMetrics
from repro.expr.expressions import Comparison, col, lit
from repro.filters import FILTER_KINDS
from repro.filters.cache import BitvectorFilterCache
from repro.obs.trace import Tracer
from repro.plan.builder import attach_aggregate, build_right_deep
from repro.plan.nodes import FilterNode, ScanNode
from repro.plan.pushdown import push_down_bitvectors
from repro.query.joingraph import JoinGraph
from repro.query.spec import Aggregate, JoinPredicate, QuerySpec, RelationRef
from repro.storage.database import Database
from repro.storage.schema import ForeignKey
from repro.storage.table import Table


@pytest.fixture(autouse=True)
def _tiny_parallel_threshold(monkeypatch):
    """Force morsel splits on test-sized relations."""
    monkeypatch.setattr(executor_module, "_MIN_PARALLEL_ROWS", 64)
    monkeypatch.setattr("repro.storage.partition.MIN_MORSEL_ROWS", 16)


def _random_star(seed: int) -> tuple[Database, QuerySpec, list[list[str]]]:
    rng = np.random.default_rng(seed)
    n_dim1 = int(rng.integers(30, 150))
    n_dim2 = int(rng.integers(30, 150))
    n_fact = int(rng.integers(2000, 8000))

    database = Database(f"par_{seed}")
    database.add_table(
        Table.from_arrays(
            "dim1",
            {
                "id": np.arange(n_dim1),
                "v": rng.integers(0, 10, n_dim1),
                "tag": rng.choice(
                    np.array(["x", "y", "z"], dtype=object), n_dim1
                ),
            },
            key=("id",),
        )
    )
    database.add_table(
        Table.from_arrays(
            "dim2",
            {"id": np.arange(n_dim2), "w": rng.integers(0, 8, n_dim2)},
            key=("id",),
        )
    )
    database.add_table(
        Table.from_arrays(
            "fact",
            {
                "fk1": rng.integers(0, n_dim1, n_fact),
                "fk2": rng.integers(0, n_dim2, n_fact),
                "m": np.round(rng.normal(size=n_fact), 6),
            },
        )
    )
    database.add_foreign_key(ForeignKey("fact", ("fk1",), "dim1", ("id",)))
    database.add_foreign_key(ForeignKey("fact", ("fk2",), "dim2", ("id",)))

    spec = QuerySpec(
        name=f"q_{seed}",
        relations=(
            RelationRef("f", "fact"),
            RelationRef("a", "dim1"),
            RelationRef("b", "dim2"),
        ),
        join_predicates=(
            JoinPredicate("f", ("fk1",), "a", ("id",)),
            JoinPredicate("f", ("fk2",), "b", ("id",)),
        ),
        local_predicates={
            "a": Comparison("<", col("a", "v"), lit(int(rng.integers(2, 9)))),
            "b": Comparison("<", col("b", "w"), lit(int(rng.integers(2, 7)))),
        },
        aggregates=(
            Aggregate("count", label="cnt"),
            Aggregate("sum", col("f", "m"), label="total"),
            Aggregate("min", col("f", "m"), label="lo"),
        ),
        group_by=(col("a", "tag"),),
    )
    orders = [["f", "a", "b"], ["a", "f", "b"], ["b", "f", "a"]]
    return database, spec, orders


def _fact_dim(seed: int) -> tuple[Database, QuerySpec, list[list[str]]]:
    """One fact table over one dimension: a single-join probe of
    20 000 rows, the longest intermediate-relation region here."""
    rng = np.random.default_rng(seed)
    n_dim, n_fact = 400, 20_000
    database = Database(f"fact_dim_{seed}")
    database.add_table(
        Table.from_arrays(
            "dim",
            {"id": np.arange(n_dim), "v": rng.integers(0, 10, n_dim)},
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
    spec = QuerySpec(
        name="q",
        relations=(RelationRef("f", "fact"), RelationRef("d", "dim")),
        join_predicates=(JoinPredicate("f", ("fk",), "d", ("id",)),),
        local_predicates={"d": Comparison("<", col("d", "v"), lit(4))},
        aggregates=(
            Aggregate("count", label="cnt"),
            Aggregate("sum", col("f", "m"), label="total"),
        ),
    )
    return database, spec, [["f", "d"]]


def _relation_plans(database, spec, orders):
    graph = JoinGraph(spec, database.catalog)
    return [
        push_down_bitvectors(build_right_deep(graph, order))
        for order in orders
    ]


def _aggregate_plans(database, spec, orders):
    return [
        attach_aggregate(plan, spec)
        for plan in _relation_plans(database, spec, orders)
    ]


@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
@pytest.mark.parametrize("seed", range(5))
def test_parallel_matches_serial_byte_identical(filter_kind, seed):
    database, spec, orders = _random_star(seed)
    serial = Executor(database, filter_kind=filter_kind)
    parallel = Executor(
        database, filter_kind=filter_kind, parallelism=4, morsel_rows=512
    )
    for plan in _aggregate_plans(database, spec, orders):
        serial_result = serial.execute(plan)
        parallel_result = parallel.execute(plan)
        keys = serial_result.aggregates.keys()
        assert keys == parallel_result.aggregates.keys()
        for label in keys:
            expected = serial_result.aggregates[label]
            actual = parallel_result.aggregates[label]
            assert actual.dtype == expected.dtype
            assert actual.tobytes() == expected.tobytes(), (
                f"{label} diverged for filter={filter_kind} seed={seed}"
            )
        assert _checksum(parallel_result) == _checksum(serial_result)


@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
@pytest.mark.parametrize("seed", range(3))
def test_fact_dim_parallel_matches_serial_byte_identical(filter_kind, seed):
    database, spec, orders = _fact_dim(seed)
    (plan,) = _aggregate_plans(database, spec, orders)
    reference = Executor(database, filter_kind=filter_kind).execute(plan)
    result = Executor(
        database, filter_kind=filter_kind, parallelism=4, morsel_rows=512
    ).execute(plan)
    for label in reference.aggregates:
        assert (
            result.aggregates[label].tobytes()
            == reference.aggregates[label].tobytes()
        ), (filter_kind, seed, label)


@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
def test_parallel_relation_output_identical(filter_kind):
    """Non-aggregate plans: every output column, row order included."""
    database, spec, orders = _random_star(11)
    serial = Executor(database, filter_kind=filter_kind)
    parallel = Executor(
        database, filter_kind=filter_kind, parallelism=3, morsel_rows=700
    )
    for plan in _relation_plans(database, spec, orders):
        serial_columns = serial.execute(plan).relation.columns
        parallel_columns = parallel.execute(plan).relation.columns
        assert serial_columns.keys() == parallel_columns.keys()
        for key, expected in serial_columns.items():
            actual = parallel_columns[key]
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected), f"{key} diverged"


@pytest.mark.parametrize("seed", range(3))
def test_warm_filter_stack_parallel_matches_serial(seed):
    """The fact scan's stacked exact filters over cached filters: the
    first execution builds their row bitmaps, the second ANDs the
    memoized ones — on the main thread at every parallelism, so
    ``parallelism=4`` answers byte-identically to serial both times."""
    database, spec, orders = _random_star(seed + 20)
    executors = [
        Executor(
            database, filter_cache=BitvectorFilterCache(), **options
        )
        for options in ({}, {"parallelism": 4, "morsel_rows": 512})
    ]
    for plan in _aggregate_plans(database, spec, orders):
        for _ in range(2):
            tracers = [Tracer(), Tracer()]
            serial, parallel = (
                executor.execute(plan, tracer=tracer).aggregates
                for executor, tracer in zip(executors, tracers)
            )
            for label in serial:
                assert parallel[label].tobytes() == serial[label].tobytes()
        # The warm pass read memoized bitmaps on both executors.
        for tracer in tracers:
            assert "hit" in [
                span.attributes.get("bitmaps") for span in tracer.spans("node")
            ]


@pytest.mark.parametrize("seed", range(3))
def test_parallel_matches_serial_with_lip_ordering(seed):
    """LIP adaptive filter ordering is decided once on the main thread
    and shared by every morsel — results stay byte-identical."""
    database, spec, orders = _random_star(seed + 50)
    serial = Executor(database, adaptive_filter_order=True)
    parallel = Executor(
        database, adaptive_filter_order=True, parallelism=4, morsel_rows=512
    )
    for plan in _aggregate_plans(database, spec, orders):
        serial_result = serial.execute(plan)
        parallel_result = parallel.execute(plan)
        for label in serial_result.aggregates:
            assert (
                parallel_result.aggregates[label].tobytes()
                == serial_result.aggregates[label].tobytes()
            )


def _counted_star() -> tuple[Database, QuerySpec, list[list[str]]]:
    """A fact table over a dimension whose sorted key a band predicate
    narrows (``rows_skipped``) and a float-keyed dimension whose join no
    dictionary answers (``dictionary_misses``)."""
    rng = np.random.default_rng(7)
    n_fact = 6_000
    database = Database("counted_star")
    database.add_table(
        Table.from_arrays(
            "dim1",
            {"id": np.arange(120), "v": rng.integers(0, 10, 120)},
            key=("id",),
        )
    )
    database.add_table(
        Table.from_arrays(
            "fdim", {"x": np.arange(80) * 0.5, "w": rng.integers(0, 8, 80)}
        )
    )
    database.add_table(
        Table.from_arrays(
            "fact",
            {
                "fk1": rng.integers(0, 120, n_fact),
                "fx": rng.integers(0, 80, n_fact) * 0.5,
                "m": np.round(rng.normal(size=n_fact), 6),
            },
        )
    )
    database.add_foreign_key(ForeignKey("fact", ("fk1",), "dim1", ("id",)))
    spec = QuerySpec(
        name="q",
        relations=(
            RelationRef("f", "fact"),
            RelationRef("a", "dim1"),
            RelationRef("x", "fdim"),
        ),
        join_predicates=(
            JoinPredicate("f", ("fk1",), "a", ("id",)),
            JoinPredicate("f", ("fx",), "x", ("x",)),
        ),
        local_predicates={
            "a": Comparison("<", col("a", "id"), lit(40)),
            "x": Comparison("<", col("x", "w"), lit(4)),
        },
        aggregates=(
            Aggregate("count", label="cnt"),
            Aggregate("sum", col("f", "m"), label="total"),
        ),
    )
    return database, spec, [["f", "a", "x"], ["x", "f", "a"]]


# Every flat counter of ExecutionMetrics except the build phase's
# wall-clock seconds and ``morsels_pruned``, which counts the morsels of
# the table's static split — a split whose shape names the parallelism
# (at least one morsel per worker), so it differs by definition.
_COUNTERS = sorted(
    name for name, value in vars(ExecutionMetrics()).items()
    if not name.startswith("_") and isinstance(value, int)
    and name != "morsels_pruned"
)


@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
def test_only_filter_probes_fan_out_and_every_counter_is_serial(filter_kind):
    """The bitvector probe is the one fan-out site: at ``parallelism=4``
    every ``morsel`` span hangs under the span of a node that applies
    bitvectors (a scan or a ``FilterNode``), and every counter and the
    metered CPU equal the serial run's, cold (filter cache misses) and
    warm (hits)."""
    cases = [_random_star(seed) for seed in range(3)] + [_counted_star()]
    fanned_out = 0
    totals = dict.fromkeys(_COUNTERS, 0)
    for database, spec, orders in cases:
        executors = [
            Executor(
                database, filter_kind=filter_kind,
                filter_cache=BitvectorFilterCache(), morsel_rows=512,
                **options,
            )
            for options in ({}, {"parallelism": 4})
        ]
        for plan in _aggregate_plans(database, spec, orders):
            applying = {
                node.node_id for node in plan.walk()
                if isinstance(node, (ScanNode, FilterNode))
                and node.applied_bitvectors
            }
            for _ in range(2):
                tracer = Tracer()
                serial = executors[0].execute(plan).metrics
                parallel = executors[1].execute(plan, tracer=tracer).metrics
                nodes = {span.span_id: span for span in tracer.spans("node")}
                for morsel in tracer.spans("morsel"):
                    parent = nodes.get(morsel.parent_id)
                    assert parent is not None
                    assert parent.attributes["node_id"] in applying, (
                        parent.attributes["label"]
                    )
                    fanned_out += 1
                assert parallel.metered_cpu() == serial.metered_cpu()
                for counter in _COUNTERS:
                    assert getattr(parallel, counter) == getattr(
                        serial, counter
                    ), counter
                    totals[counter] += getattr(serial, counter)
    assert fanned_out
    # The plans exercise the counters the dispatching thread writes.
    for counter in (
        "filter_cache_hits", "filter_cache_misses", "rows_skipped",
        "dictionary_hits", "dictionary_misses", "rows_copied",
        "bytes_gathered", "selection_bytes",
    ):
        assert totals[counter], counter


@pytest.mark.parametrize(
    "parallelism, rows, pooled",
    [(1, 10_000, False), (4, 63, False), (4, 64, True), (2, 0, False),
     (2, 10_000, True), (4, 100_000, True)],
)
def test_probe_pools_above_the_row_threshold_only(parallelism, rows, pooled):
    """The one pool-or-inline rule: parallelism > 1 and at least
    ``_MIN_PARALLEL_ROWS`` rows (64 here); pooled morsels cover the
    rows in order, at least one per worker."""
    executor = Executor(
        Database("rule"), parallelism=parallelism, morsel_rows=512
    )
    ranges = executor._ranges(rows)
    if not pooled:
        assert ranges is None
        return
    assert len(ranges) >= parallelism
    assert ranges[0][0] == 0 and ranges[-1][1] == rows
    assert all(left[1] == right[0] for left, right in zip(ranges, ranges[1:]))


@pytest.mark.parametrize("seed", range(3))
def test_morsel_spans_partition_the_probed_rows(seed):
    """A fact scan's one hashed-filter probe fans out: its morsel spans
    cover every fact row once (``rows_in``) and their survivors sum to
    the scan's output (``rows_out``)."""
    database, spec, orders = _fact_dim(seed)
    (plan,) = _aggregate_plans(database, spec, orders)
    tracer = Tracer()
    Executor(
        database, filter_kind="blocked_bloom", parallelism=4, morsel_rows=512
    ).execute(plan, tracer=tracer)
    (scan,) = [
        span for span in tracer.spans("node")
        if span.attributes["label"].startswith("Scan(f:")
    ]
    morsels = [
        span for span in tracer.spans("morsel")
        if span.parent_id == scan.span_id
    ]
    assert len(morsels) == len(tracer.spans("morsel")) >= 4
    assert sum(span.attributes["rows_in"] for span in morsels) == 20_000
    assert sum(span.attributes["rows_out"] for span in morsels) == (
        scan.attributes["rows_out"]
    )


def test_parallelism_one_is_serial_engine():
    """parallelism=1 must take the exact serial code path."""
    database, spec, orders = _random_star(17)
    plan = _aggregate_plans(database, spec, orders)[0]
    default_result = Executor(database).execute(plan)
    configured = Executor(database, parallelism=1, morsel_rows=512)
    configured_result = configured.execute(plan)
    for label in default_result.aggregates:
        assert (
            configured_result.aggregates[label].tobytes()
            == default_result.aggregates[label].tobytes()
        )
    assert (
        configured_result.metrics.rows_copied
        == default_result.metrics.rows_copied
    )


# -- filter builds: one serial pass at every parallelism -------------------


def _build_bound(seed: int) -> tuple[Database, QuerySpec, list[list[str]]]:
    """A dimension bigger than its fact table, so the filter build is the
    largest region of the plan (and a filtered build side is an index
    selection whose key gathers could fan out)."""
    rng = np.random.default_rng(seed)
    n_dim, n_fact = 6_000, 3_000
    database = Database(f"build_bound_{seed}")
    database.add_table(
        Table.from_arrays(
            "dim",
            {"id": np.arange(n_dim), "attr": rng.integers(0, 50, n_dim)},
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
    spec = QuerySpec(
        name="q",
        relations=(RelationRef("f", "fact"), RelationRef("d", "dim")),
        join_predicates=(JoinPredicate("f", ("fk",), "d", ("id",)),),
        local_predicates={"d": Comparison("<", col("d", "attr"), lit(35))},
        aggregates=(
            Aggregate("count", label="cnt"),
            Aggregate("sum", col("f", "m"), label="total"),
        ),
    )
    return database, spec, [["f", "d"]]


@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
def test_build_bound_parallel_matches_serial(filter_kind):
    """The filter a build-bound plan builds answers the same at
    parallelism 1 and 4, for every kind, byte for byte."""
    database, spec, orders = _build_bound(1)
    (plan,) = _aggregate_plans(database, spec, orders)
    results = [
        Executor(
            database, filter_kind=filter_kind, parallelism=parallelism,
            morsel_rows=256,
        ).execute(plan)
        for parallelism in (1, 4)
    ]
    for label in results[0].aggregates:
        assert (
            results[1].aggregates[label].tobytes()
            == results[0].aggregates[label].tobytes()
        ), (filter_kind, label)


@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
def test_filter_build_is_metered_on_a_miss_only(filter_kind):
    """A filter-cache miss meters its build phase; a hit builds nothing
    and meters zero."""
    database, spec, orders = _build_bound(4)
    (plan,) = _aggregate_plans(database, spec, orders)
    executor = Executor(
        database, filter_kind=filter_kind,
        filter_cache=BitvectorFilterCache(8), parallelism=4, morsel_rows=256,
    )
    cold = executor.execute(plan).metrics
    warm = executor.execute(plan).metrics
    assert cold.filter_cache_misses == 1
    assert cold.filter_build_seconds > 0.0
    assert warm.filter_cache_hits == 1
    assert warm.filter_build_seconds == 0.0


@pytest.mark.parametrize("filter_kind", sorted(FILTER_KINDS))
def test_filter_cache_entry_is_shared_across_parallelism(filter_kind):
    """A filter built at parallelism 4 is the one a serial executor on
    the same cache reuses: the cache key does not name the parallelism."""
    database, spec, orders = _build_bound(5)
    (plan,) = _aggregate_plans(database, spec, orders)
    cache = BitvectorFilterCache(8)
    parallel, serial = (
        Executor(
            database, filter_kind=filter_kind, filter_cache=cache, **options
        ).execute(plan)
        for options in ({"parallelism": 4, "morsel_rows": 256}, {})
    )
    assert len(cache) == 1
    assert serial.metrics.filter_cache_hits == 1
    for label in serial.aggregates:
        assert (
            parallel.aggregates[label].tobytes()
            == serial.aggregates[label].tobytes()
        )


@pytest.mark.parametrize("first_kind", sorted(FILTER_KINDS))
def test_filter_cache_entries_are_per_kind(first_kind):
    """Two kinds sharing one cache never serve each other's filter: the
    cache key names the kind, and each entry is of its own kind."""
    database, spec, orders = _build_bound(5)
    (plan,) = _aggregate_plans(database, spec, orders)
    cache = BitvectorFilterCache(8)
    kinds = [first_kind] + [k for k in sorted(FILTER_KINDS) if k != first_kind]
    results = [
        Executor(database, filter_kind=kind, filter_cache=cache).execute(plan)
        for kind in kinds
    ]
    assert [r.metrics.filter_cache_misses for r in results] == [1, 1]
    assert [r.metrics.filter_cache_hits for r in results] == [0, 0]
    assert sorted(type(entry).__name__ for entry in cache.values()) == sorted(
        cls.__name__ for cls in FILTER_KINDS.values()
    )
    for label in results[0].aggregates:
        assert (
            results[0].aggregates[label].tobytes()
            == results[1].aggregates[label].tobytes()
        )


def test_bloom_sized_from_the_whole_build_side(monkeypatch):
    """At parallelism 4 the hashed kind is still one filter over every
    build row, sized from their total count, built on the calling
    thread."""
    built = []

    def spy(kind, key_columns):
        bitvector = FILTER_KINDS[kind].build(key_columns)
        built.append((len(key_columns[0]), bitvector, threading.get_ident()))
        return bitvector

    monkeypatch.setattr(executor_module, "create_filter", spy)
    database, spec, orders = _build_bound(6)
    (plan,) = _aggregate_plans(database, spec, orders)
    Executor(
        database, filter_kind="blocked_bloom", parallelism=4, morsel_rows=256
    ).execute(plan)
    ((build_rows, bitvector, thread),) = built
    assert build_rows > 256 * 4
    assert bitvector.num_keys == build_rows
    # Geometry depends on the key count only.
    filter_class = FILTER_KINDS["blocked_bloom"]
    whole = filter_class.build([np.arange(build_rows)]).size_bits
    one_morsel = filter_class.build([np.arange(256)]).size_bits
    assert bitvector.size_bits == whole > one_morsel
    assert thread == threading.get_ident()
