"""Unit tests for the lazy selection-vector Relation."""

import numpy as np
import pytest

from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import _BITMAP_MIN_ROWS, BitmapSelection, Relation
from repro.errors import ExecutionError


def make_relation(counters=None):
    columns = {
        ("t", "a"): np.arange(10, dtype=np.int64),
        ("t", "b"): np.arange(10, dtype=np.float64) * 2.0,
    }
    sources = {("t", "a"): ("base", "a"), ("t", "b"): ("base", "b")}
    return Relation(columns, 10, sources=sources, counters=counters)


class TestLaziness:
    def test_identity_view_returns_base_array_without_copy(self):
        metrics = ExecutionMetrics()
        relation = make_relation(metrics)
        base = relation.column("t", "a")
        assert base is relation.column("t", "a")
        assert metrics.rows_copied == 0
        assert metrics.bytes_gathered == 0

    def test_mask_copies_nothing_until_column_read(self):
        metrics = ExecutionMetrics()
        relation = make_relation(metrics).mask(np.arange(10) % 2 == 0)
        assert relation.num_rows == 5
        assert metrics.rows_copied == 0  # nothing materialized yet

    def test_reading_one_column_copies_only_that_column(self):
        metrics = ExecutionMetrics()
        relation = make_relation(metrics).mask(np.arange(10) % 2 == 0)
        values = relation.column("t", "a")
        assert values.tolist() == [0, 2, 4, 6, 8]
        assert metrics.rows_copied == 5
        assert metrics.bytes_gathered == values.nbytes
        # cached: a second read does not copy again
        assert relation.column("t", "a") is values
        assert metrics.rows_copied == 5

    def test_gather_composes_selections(self):
        relation = make_relation().mask(np.arange(10) >= 4)  # rows 4..9
        nested = relation.gather(np.array([5, 0, 0]))
        assert nested.column("t", "a").tolist() == [9, 4, 4]

    def test_column_head_gathers_only_sample(self):
        metrics = ExecutionMetrics()
        relation = make_relation(metrics).mask(np.arange(10) % 2 == 1)
        head = relation.column_head("t", "a", 2)
        assert head.tolist() == [1, 3]
        assert metrics.rows_copied == 0  # samples are not counted copies

    def test_missing_column_raises(self):
        with pytest.raises(ExecutionError, match="not present"):
            make_relation().column("t", "zzz")


class TestProvenance:
    def test_identity_scan_has_whole_column_provenance(self):
        source = make_relation().base_source("t", "a")
        assert source == ("base", "a", None)

    def test_provenance_survives_mask_and_gather(self):
        relation = make_relation().mask(np.arange(10) < 3).gather(
            np.array([2, 0])
        )
        table, column, selection = relation.base_source("t", "a")
        assert (table, column) == ("base", "a")
        assert selection.tolist() == [2, 0]

    def test_provenance_survives_merge(self):
        left = make_relation()
        right = Relation(
            {("u", "c"): np.arange(100, 104)},
            4,
            sources={("u", "c"): ("other", "c")},
        )
        merged = left.merged_with(
            right, np.array([1, 2]), np.array([0, 3])
        )
        table, column, selection = merged.base_source("u", "c")
        assert (table, column) == ("other", "c")
        assert selection.tolist() == [0, 3]
        assert merged.column("u", "c").tolist() == [100, 103]

    def test_no_provenance_returns_none(self):
        relation = Relation({("t", "a"): np.arange(3)}, 3)
        assert relation.base_source("t", "a") is None


class TestMerge:
    def test_duplicate_column_rejected(self):
        with pytest.raises(ExecutionError, match="duplicate column"):
            make_relation().merged_with(
                make_relation(), np.array([0]), np.array([0])
            )

    def test_merge_keeps_both_sides_lazy(self):
        metrics = ExecutionMetrics()
        left = make_relation(metrics)
        right = Relation(
            {("u", "c"): np.arange(50, 60)}, 10, counters=metrics
        )
        merged = left.merged_with(
            right, np.array([0, 1, 2]), np.array([9, 8, 7])
        )
        assert metrics.rows_copied == 0
        assert merged.column("u", "c").tolist() == [59, 58, 57]
        assert metrics.rows_copied == 3


    def test_identity_side_keeps_its_groups_and_bitmaps_untouched(self):
        """``merged_with(None, idx)``: the identity side's groups are
        carried as they are — the very objects, an undecoded bitmap
        selection still undecoded — and nothing is copied."""
        metrics = ExecutionMetrics()
        rows = _BITMAP_MIN_ROWS + 7
        left = Relation(
            {("t", "a"): np.arange(rows)}, rows,
            sources={("t", "a"): ("base", "a")}, counters=metrics,
        ).mask(np.arange(rows) % 3 == 0)
        (group,) = left._groups
        assert isinstance(group.selection, BitmapSelection)
        right = Relation({("u", "c"): np.arange(50, 60)}, 10, counters=metrics)
        idx = np.arange(left.num_rows) % 10
        merged = left.merged_with(right, None, idx)
        assert merged.num_rows == left.num_rows
        assert merged._groups[0] is group
        assert group.selection._base_positions is None  # never decoded
        assert metrics.rows_copied == 0
        assert merged.column("u", "c").tolist() == (50 + idx).tolist()
        assert merged.column("t", "a").tolist() == list(range(0, rows, 3))
        # The other way round, and both sides at once.
        flipped = right.merged_with(left, idx, None)
        assert flipped._groups[1] is group
        assert flipped.num_rows == left.num_rows
        both = left.merged_with(
            Relation({("v", "d"): np.arange(left.num_rows)}, left.num_rows),
            None, None,
        )
        assert both.num_rows == left.num_rows
        assert both._groups[0] is group
        assert both.base_source("v", "d") is None  # no provenance, as before

    def test_identity_merge_equals_the_arange_merge(self):
        left, right = make_relation(), Relation(
            {("u", "c"): np.arange(50, 60)}, 10
        )
        idx = np.array([9, 0, 0, 4, 4, 4, 1, 2, 3, 5])
        by_none = left.merged_with(right, None, idx)
        by_arange = left.merged_with(right, np.arange(10), idx)
        assert by_none.column_keys() == by_arange.column_keys()
        for key in by_none.column_keys():
            assert by_none.column(*key).tolist() == by_arange.column(*key).tolist()

    def test_dead_groups_are_not_carried(self):
        """``live`` names the aliases still read downstream: a group
        with none of them is dropped whole, others are kept whole."""
        left = make_relation()
        right = Relation({("u", "c"): np.arange(50, 60)}, 10)
        idx = np.array([3, 1])
        merged = left.merged_with(right, idx, idx, live=frozenset({"t"}))
        assert merged.column_keys() == [("t", "a"), ("t", "b")]
        assert merged.aliases() == {"t"}
        merged = left.merged_with(right, None, None, live=frozenset({"u", "x"}))
        assert merged.column_keys() == [("u", "c")]
        nothing = left.merged_with(right, idx, idx, live=frozenset())
        assert nothing.column_keys() == [] and nothing.num_rows == 2
        everything = left.merged_with(right, idx, idx)
        assert everything.aliases() == {"t", "u"}


class TestMaterialized:
    def test_columns_property_matches_seed_shape(self):
        relation = make_relation().mask(np.arange(10) < 2)
        columns = relation.columns
        assert set(columns) == {("t", "a"), ("t", "b")}
        assert columns[("t", "a")].tolist() == [0, 1]
