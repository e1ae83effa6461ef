"""Unit tests for the lazy selection-vector Relation."""

import numpy as np
import pytest

from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation
from repro.errors import ExecutionError

# Wider than 65,536 rows: the widths whose selections were once
# bit-packed keep their coverage on the one int64 path.
_WIDE_ROWS = (1 << 16) + 1000


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


    def test_identity_side_keeps_its_groups_and_selections_untouched(self):
        """``merged_with(None, idx)``: the identity side's groups are
        carried as they are — the very objects, selection included —
        and nothing is copied."""
        metrics = ExecutionMetrics()
        rows = _WIDE_ROWS + 7
        left = Relation(
            {("t", "a"): np.arange(rows)}, rows,
            sources={("t", "a"): ("base", "a")}, counters=metrics,
        ).mask(np.arange(rows) % 3 == 0)
        (group,) = left._groups
        assert isinstance(group.selection, np.ndarray)
        right = Relation({("u", "c"): np.arange(50, 60)}, 10, counters=metrics)
        idx = np.arange(left.num_rows) % 10
        merged = left.merged_with(right, None, idx)
        assert merged.num_rows == left.num_rows
        assert merged._groups[0] is group
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


def wide_relation(counters=None, rows=_WIDE_ROWS):
    columns = {
        ("t", "a"): np.arange(rows, dtype=np.int64),
        ("t", "b"): np.arange(rows, dtype=np.float64) * 0.5,
    }
    sources = {("t", "a"): ("base", "a"), ("t", "b"): ("base", "b")}
    return Relation(columns, rows, sources=sources, counters=counters)


def selection_of(relation):
    return relation._groups[0].selection


class TestWideSelections:
    """Row filters over views wider than 65,536 rows: every selection
    is a sorted int64 position vector into the base arrays."""

    def test_mask_holds_an_int64_position_vector(self):
        view = wide_relation().mask(np.arange(_WIDE_ROWS) % 3 == 0)
        selection = selection_of(view)
        assert isinstance(selection, np.ndarray)
        assert selection.dtype == np.int64
        assert selection.tolist() == list(range(0, _WIDE_ROWS, 3))

    def test_select_sorted_keeps_the_vector_in_hand(self):
        positions = np.arange(0, _WIDE_ROWS, 7, dtype=np.int64)
        view = wide_relation().select_sorted(positions)
        assert selection_of(view) is positions

    def test_stacked_masks(self):
        first = wide_relation().mask(np.arange(_WIDE_ROWS) % 2 == 0)
        second = first.mask(first.column("t", "a") % 3 == 0)
        assert isinstance(selection_of(second), np.ndarray)
        assert second.column("t", "a").tolist() == list(
            range(0, _WIDE_ROWS, 6)
        )

    def test_select_sorted_of_a_masked_view(self):
        view = wide_relation().mask(np.arange(_WIDE_ROWS) % 2 == 0)
        narrowed = view.select_sorted(
            np.arange(0, view.num_rows, 5, dtype=np.int64)
        )
        assert narrowed.column("t", "a").tolist() == list(
            range(0, _WIDE_ROWS, 10)
        )

    def test_gather_out_of_a_masked_view(self):
        view = wide_relation().mask(np.arange(_WIDE_ROWS) % 2 == 0)
        taken = view.gather(np.array([5, 0, 0]))
        assert taken.column("t", "a").tolist() == [10, 0, 0]

    def test_slice_view_offset_rebases_into_base(self):
        band = wide_relation().narrow(1000, _WIDE_ROWS)
        mask = np.zeros(band.num_rows, dtype=bool)
        mask[:4] = True
        view = band.mask(mask)
        assert selection_of(view).tolist() == [1000, 1001, 1002, 1003]
        assert view.column("t", "a").tolist() == [1000, 1001, 1002, 1003]

    def test_narrow_shares_memory_with_the_selection(self):
        view = wide_relation().mask(np.arange(_WIDE_ROWS) % 2 == 0)
        band = view.narrow(10, 14)
        assert band.column("t", "a").tolist() == [20, 22, 24, 26]
        assert np.shares_memory(selection_of(band), selection_of(view))

    def test_column_head_reads_the_first_rows_only(self):
        metrics = ExecutionMetrics()
        view = wide_relation(metrics).mask(np.arange(_WIDE_ROWS) % 2 == 1)
        assert view.column_head("t", "a", 3).tolist() == [1, 3, 5]
        assert ("t", "a") not in view._materialized
        assert metrics.rows_copied == 0

    def test_base_source_hands_back_int64_positions(self):
        view = wide_relation().mask(np.arange(_WIDE_ROWS) % 2 == 0)
        table, column, selection = view.base_source("t", "a")
        assert (table, column) == ("base", "a")
        assert isinstance(selection, np.ndarray)
        assert selection.dtype == np.int64
        assert selection[:3].tolist() == [0, 2, 4]

    @pytest.mark.parametrize("rows", [1000, _WIDE_ROWS])
    def test_selection_bytes_are_eight_per_survivor(self, rows):
        metrics = ExecutionMetrics()
        view = wide_relation(metrics, rows=rows).mask(np.arange(rows) % 2 == 0)
        survivors = view.num_rows
        assert metrics.selection_bytes == metrics.selection_bytes_dense
        assert metrics.selection_bytes == 8 * survivors
        narrowed = view.select_sorted(np.arange(0, survivors, 3))
        assert metrics.selection_bytes == metrics.selection_bytes_dense
        assert metrics.selection_bytes == 8 * (survivors + narrowed.num_rows)
