"""Zone maps: the sortedness synopsis, its database cache, and the
value bands the executor's scan band search answers from it."""

import threading

import numpy as np
import pytest

from repro.expr.expressions import (
    And,
    Between,
    InList,
    Not,
    Or,
    col,
    lit,
    Comparison,
)
from repro.storage.database import Database
from repro.storage.table import Table
from repro.storage.zonemaps import ColumnZoneMap, predicate_band


def cmp(op, column, value):
    return Comparison(op, col("t", column), lit(value))


@pytest.fixture
def database():
    db = Database("zm")
    db.add_table(
        Table.from_arrays(
            "fact",
            {"k": np.arange(10_000), "v": np.ones(10_000)},
        ),
        validate_key=False,
    )
    return db


class TestDatabaseZoneMaps:
    def test_cached_per_column(self, database):
        first = database.zone_map("fact", "k")
        assert database.zone_map("fact", "k") is first
        assert database.zone_map("fact", "v") is not first
        info = database.zone_map_cache_info()
        assert info["entries"] == 2
        assert info["builds"] == 2
        assert info["lookups"] == 3

    def test_invalidation_alongside_dictionaries(self, database):
        database.zone_map("fact", "k")
        database.invalidate_zone_maps("other")
        assert database.zone_map_cache_info()["entries"] == 1
        database.invalidate_dictionaries("fact")
        assert database.zone_map_cache_info()["entries"] == 0
        database.zone_map("fact", "k")
        database.invalidate_zone_maps()
        assert database.zone_map_cache_info()["entries"] == 0

    def test_unknown_table_or_column_raises(self, database):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            database.zone_map("nope", "k")
        with pytest.raises(SchemaError):
            database.zone_map("fact", "nope")
        # A failed build must not wedge the single-flight machinery.
        database.zone_map("fact", "k")


class TestZoneMapSingleFlight:
    _THREADS = 16

    def _barrier_run(self, worker):
        barrier = threading.Barrier(self._THREADS)
        results = [None] * self._THREADS
        errors = []

        def runner(slot):
            try:
                barrier.wait()
                results[slot] = worker(slot)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [
            threading.Thread(target=runner, args=(slot,))
            for slot in range(self._THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    def test_thundering_herd_builds_once(self, database):
        results = self._barrier_run(
            lambda _: database.zone_map("fact", "k")
        )
        assert all(result is results[0] for result in results)
        info = database.zone_map_cache_info()
        assert info["builds"] == 1, (
            f"duplicate builds leaked into metrics: {info}"
        )
        assert info["entries"] == 1
        assert info["lookups"] == self._THREADS

    def test_distinct_keys_build_independently(self, database):
        columns = ["k", "v"]
        self._barrier_run(
            lambda slot: database.zone_map("fact", columns[slot % 2])
        )
        info = database.zone_map_cache_info()
        assert info["builds"] == 2
        assert info["entries"] == 2

    def test_build_vs_invalidate_race(self, database):
        stop = threading.Event()
        invalidations = 0

        def invalidator():
            nonlocal invalidations
            while not stop.is_set():
                database.invalidate_zone_maps("fact")
                invalidations += 1

        churner = threading.Thread(target=invalidator)
        churner.start()
        try:
            def reader(_slot):
                for _ in range(20):
                    zone = database.zone_map("fact", "k")
                    # A half-built or stale synopsis would misdescribe
                    # the sorted column.
                    assert zone.sorted_ascending

            self._barrier_run(reader)
        finally:
            stop.set()
            churner.join()
        info = database.zone_map_cache_info()
        assert 1 <= info["builds"] <= invalidations + 1


class TestPredicateBand:
    """``predicate_band``: lossless single-column value bands.

    The executor's clustered band search replaces row-wise predicate
    evaluation with two binary searches only when the predicate is
    *exactly* a band; any lossy translation here would silently change
    results, so the rejection cases matter as much as the accepted ones.
    """

    def test_between_is_an_inclusive_band(self):
        band = predicate_band(Between(col("t", "k"), lit(3), lit(9)), "t")
        assert band == ("k", 3, True, 9, True)

    def test_equality_is_a_degenerate_band(self):
        assert predicate_band(cmp("=", "k", 42), "t") == (
            "k", 42, True, 42, True
        )

    def test_comparison_rays(self):
        assert predicate_band(cmp("<", "k", 7), "t") == (
            "k", None, False, 7, False
        )
        assert predicate_band(cmp("<=", "k", 7), "t") == (
            "k", None, False, 7, True
        )
        assert predicate_band(cmp(">", "k", 7), "t") == (
            "k", 7, False, None, False
        )
        assert predicate_band(cmp(">=", "k", 7), "t") == (
            "k", 7, True, None, False
        )

    def test_flipped_literal_reverses_the_operator(self):
        # 7 < k means k > 7.
        band = predicate_band(Comparison("<", lit(7), col("t", "k")), "t")
        assert band == ("k", 7, False, None, False)

    def test_conjunction_intersects_bounds(self):
        band = predicate_band(
            And((cmp(">=", "k", 2), cmp("<", "k", 10), cmp(">", "k", 4))),
            "t",
        )
        assert band == ("k", 4, False, 10, False)

    def test_tied_bounds_stay_inclusive_only_when_both_are(self):
        band = predicate_band(
            And((cmp(">=", "k", 5), cmp(">", "k", 5))), "t"
        )
        assert band == ("k", 5, False, None, False)

    def test_contradictory_band_is_still_a_band(self):
        # k > 9 AND k < 2: an empty band is representable (the caller's
        # searchsorted clamp yields zero rows) — no fallback needed.
        band = predicate_band(
            And((cmp(">", "k", 9), cmp("<", "k", 2))), "t"
        )
        assert band == ("k", 9, False, 2, False)

    def test_rejections_fall_back_to_evaluation(self):
        for predicate in (
            cmp("<>", "k", 5),                       # two rays
            Or((cmp("=", "k", 1), cmp("=", "k", 2))),  # disjunction
            InList(col("t", "k"), (1, 2)),           # code list
            Not(cmp("=", "k", 1)),                   # negation
            cmp("=", "k", None),                     # NULL literal
            Comparison("<", col("t", "k"), col("t", "v")),  # col vs col
            And((cmp(">", "k", 1), cmp("<", "v", 9))),  # two columns
        ):
            assert predicate_band(predicate, "t") is None

    def test_other_alias_is_not_this_scan(self):
        assert predicate_band(cmp("=", "k", 1), "u") is None

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "="])
    def test_literal_first_equals_column_first(self, op):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
        assert predicate_band(Comparison(op, lit(7), col("t", "k")), "t") == (
            predicate_band(cmp(flipped, "k", 7), "t")
        )

    def test_text_and_float_literals_bound_a_band(self):
        assert predicate_band(cmp(">=", "s", "m"), "t") == (
            "s", "m", True, None, False
        )
        assert predicate_band(
            Between(col("t", "x"), lit(-0.5), lit(2.25)), "t"
        ) == ("x", -0.5, True, 2.25, True)

    def test_between_needs_this_scan_and_literal_bounds(self):
        for predicate in (
            Between(col("u", "k"), lit(1), lit(2)),        # other alias
            Between(col("t", "k"), lit(None), lit(2)),     # NULL bound
            Between(col("t", "k"), col("t", "v"), lit(2)),  # column bound
        ):
            assert predicate_band(predicate, "t") is None

    def test_between_and_ray_intersect(self):
        band = predicate_band(
            And((Between(col("t", "k"), lit(3), lit(9)), cmp("<", "k", 6))),
            "t",
        )
        assert band == ("k", 3, True, 6, False)

    def test_nested_conjunction_is_flattened(self):
        band = predicate_band(
            And((cmp(">", "k", 1), And((cmp("<", "k", 8), cmp("<=", "k", 5))))),
            "t",
        )
        assert band == ("k", 1, False, 5, True)

    def test_incomparable_bound_types_reject(self):
        # Two low bounds that cannot be ordered against each other: the
        # intersection is undefined, so no band may be claimed.
        band = predicate_band(
            And((cmp(">", "k", 5), cmp(">", "k", "zebra"))), "t"
        )
        assert band is None


class TestSortedAscending:
    def test_sorted_column_is_detected(self):
        assert ColumnZoneMap.build(np.array([1, 2, 2, 5, 9])).sorted_ascending

    def test_constant_column_is_trivially_sorted(self):
        assert ColumnZoneMap.build(np.full(6, 7)).sorted_ascending

    def test_shuffled_column_is_not(self):
        assert not ColumnZoneMap.build(np.array([3, 1, 2])).sorted_ascending

    def test_nan_poisons_sortedness(self):
        # NaN sorts last under searchsorted but compares false under
        # every predicate: a band search over it would be unsound.
        zone = ColumnZoneMap.build(np.array([1.0, 2.0, np.nan]))
        assert not zone.sorted_ascending
        # One row has no neighbour to compare with: NaN itself rules
        # it out.
        assert not ColumnZoneMap.build(np.array([np.nan])).sorted_ascending

    def test_unorderable_text_is_not_sorted(self):
        zone = ColumnZoneMap.build(np.array(["a", None, "b"], dtype=object))
        assert not zone.sorted_ascending

    @pytest.mark.parametrize(
        "values, expected",
        [
            (np.array([], dtype=np.int64), True),
            (np.array([7]), True),
            (np.array([3, 2, 1]), False),
            (np.arange(5, dtype=np.uint64), True),
            (np.array([-np.inf, -1.0, 0.0, np.inf]), True),
            (np.array([-0.0, 0.0, -0.0]), True),
            (np.array([np.nan, 1.0, 2.0]), False),
            (np.array([1.0, np.nan, 2.0]), False),
            (np.array([1.0, 2.0, np.nan], dtype=np.float32), False),
            (np.array([False, True, True]), True),
            (np.array([True, False]), False),
            (np.array(["apple", "banana", "cherry"], dtype=object), True),
            (np.array(["b", "a"], dtype=object), False),
            (np.array(["a", "b"]), True),
            (np.array([1, "a"], dtype=object), False),
        ],
        ids=[
            "empty", "one_row", "descending", "unsigned", "infinities",
            "signed_zeros", "nan_first", "nan_inside", "float32_nan",
            "bool", "bool_descending", "text", "text_descending",
            "fixed_width_text", "int_beside_text",
        ],
    )
    def test_column_kinds(self, values, expected):
        assert ColumnZoneMap.build(values).sorted_ascending is expected
