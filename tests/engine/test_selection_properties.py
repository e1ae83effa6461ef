"""Randomized property tests for row selections.

A filtered view's rows are a sorted int64 position vector into the base
arrays.  Every operation that builds or reads one is checked against a
plain-numpy oracle: ``mask`` against ``flatnonzero``, stacked masks
against bool ``&``, ``select_sorted`` and ``gather`` against fancy
indexing of the masked base, ``narrow`` bands against slices.
Densities cover empty / sparse / dense / all-ones, and lengths straddle
word and block boundaries (63/64/65, 511/512/513, 65535/65536/65537).
"""

import numpy as np
import pytest

from repro.engine.metrics import ExecutionMetrics
from repro.engine.relation import Relation

LENGTHS = [0, 1, 2, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1000,
           4095, 4096, 4097, 65535, 65536, 65537]
DENSITIES = [0.0, 0.01, 0.33, 0.5, 0.97, 1.0]


def random_mask(rng, length, density):
    if density == 0.0:
        return np.zeros(length, dtype=bool)
    if density == 1.0:
        return np.ones(length, dtype=bool)
    return rng.random(length) < density


def base_columns(length):
    """Two base columns whose values differ from their row positions."""
    return (
        np.arange(length, dtype=np.int64) * 3 + 1,
        np.arange(length, dtype=np.float64) * 0.5 - 7.0,
    )


def base_relation(length, counters=None):
    a, b = base_columns(length)
    return Relation(
        {("t", "a"): a, ("t", "b"): b},
        length,
        sources={("t", "a"): ("base", "a"), ("t", "b"): ("base", "b")},
        counters=counters,
    )


def selections_of(relation):
    return [group.selection for group in relation._groups]


def assert_position_vector(selection, expected):
    assert isinstance(selection, np.ndarray)
    assert selection.dtype == np.int64
    assert np.array_equal(selection, expected)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("density", DENSITIES)
def test_mask_against_numpy_oracles(length, density):
    rng = np.random.default_rng(length * 1000 + int(density * 100))
    mask = random_mask(rng, length, density)
    metrics = ExecutionMetrics()
    view = base_relation(length, metrics).mask(mask)
    a, b = base_columns(length)

    expected = np.flatnonzero(mask)
    assert view.num_rows == len(expected)
    (selection,) = selections_of(view)
    assert_position_vector(selection, expected)
    assert metrics.selection_bytes == 8 * len(expected)
    assert metrics.selection_bytes_dense == metrics.selection_bytes

    # The head of a column is read without materializing it.
    head = view.column_head("t", "a", 5)
    assert np.array_equal(head, a[mask][:5])
    assert metrics.rows_copied == 0

    table, column, source_selection = view.base_source("t", "b")
    assert (table, column) == ("base", "b")
    assert source_selection is selection
    assert np.array_equal(view.column("t", "a"), a[mask])
    assert np.array_equal(view.column("t", "b"), b[mask])
    assert metrics.rows_copied == 2 * len(expected)
    assert metrics.bytes_gathered == a[mask].nbytes + b[mask].nbytes

    # select_sorted over every rank recovers the position vector.
    ranks = np.arange(len(expected), dtype=np.int64)
    (reselected,) = selections_of(view.select_sorted(ranks))
    assert_position_vector(reselected, expected)

    # gather() at random ranks reads the base rows at those positions.
    if len(expected):
        probes = rng.integers(0, len(expected), size=min(len(expected), 512))
        taken = view.gather(probes)
        assert np.array_equal(taken.column("t", "a"), a[expected[probes]])


@pytest.mark.parametrize("length", [*range(0, 75), 127, 1001, 65541])
def test_mask_of_a_morsel_at_every_width(length):
    """A mask over a ``narrow`` band rebases its positions by the
    band's offset into the base, for widths that fill neither a byte
    nor a word; the gathered column is a copy the caller may write to
    without touching the base arrays."""
    offset = 37
    rng = np.random.default_rng(length)
    mask = rng.random(length) < 0.4
    mask[-1:] = True
    relation = base_relation(length + 2 * offset)
    morsel = relation.narrow(offset, offset + length)
    view = morsel.mask(mask)
    a, _ = base_columns(length + 2 * offset)

    expected = np.flatnonzero(mask) + offset
    assert view.num_rows == int(mask.sum())
    (selection,) = selections_of(view)
    assert_position_vector(selection, expected)
    values = view.column("t", "a")
    assert np.array_equal(values, a[expected])
    values[:] = -1
    assert np.array_equal(relation.column("t", "a"), a)
    assert np.array_equal(morsel.column("t", "a"), a[offset:offset + length])


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 129, 1000, 65537])
def test_stacked_masks_intersect(length):
    rng = np.random.default_rng(length + 7)
    left = random_mask(rng, length, 0.4)
    right = random_mask(rng, length, 0.6)
    relation = base_relation(length)

    stacked = relation.mask(left).mask(right[left])
    (selection,) = selections_of(stacked)
    assert_position_vector(selection, np.flatnonzero(left & right))

    # A mask and its complement partition the rows.
    kept = selections_of(relation.mask(left))[0]
    dropped = selections_of(relation.mask(~left))[0]
    assert len(kept) + len(dropped) == length
    assert np.array_equal(
        np.sort(np.concatenate([kept, dropped])), np.arange(length)
    )

    # Through a gathered (unsorted) selection, mask composes in order.
    order = rng.permutation(length)
    permuted = relation.gather(order).mask(left)
    (selection,) = selections_of(permuted)
    assert_position_vector(selection, order[left])


@pytest.mark.parametrize("length", [1, 64, 65, 1000, 70000])
def test_select_sorted_roundtrip(length):
    rng = np.random.default_rng(42 + length)
    count = int(rng.integers(0, length + 1))
    positions = np.sort(
        rng.choice(length, size=count, replace=False)
    ).astype(np.int64)
    a, _ = base_columns(length + 10)
    relation = base_relation(length + 10)

    view = relation.select_sorted(positions)
    assert view.num_rows == count
    assert selections_of(view)[0] is positions
    assert np.array_equal(view.column("t", "a"), a[positions])

    # From a band, positions are rebased by the band's offset.
    (rebased,) = selections_of(
        relation.narrow(10, length + 10).select_sorted(positions)
    )
    assert_position_vector(rebased, positions + 10)

    # From a masked view, positions index the surviving rows.
    mask = np.arange(length + 10) % 2 == 0
    survivors = np.flatnonzero(mask)
    ranks = positions[positions < len(survivors)]
    (composed,) = selections_of(relation.mask(mask).select_sorted(ranks))
    assert_position_vector(composed, survivors[ranks])


def test_gather_and_select_sorted_read_surviving_rows():
    rng = np.random.default_rng(11)
    length = 200_000
    mask = rng.random(length) < 0.2
    relation = base_relation(length)
    a, _ = base_columns(length)
    view = relation.mask(mask)
    ranks = rng.integers(0, view.num_rows, size=5000)

    gathered = view.gather(ranks).column("t", "a")
    # Every gathered value is a surviving row's value, at that rank.
    assert mask[(gathered - 1) // 3].all()
    assert np.array_equal(gathered, a[mask][ranks])

    ordered = np.unique(ranks)
    (selection,) = selections_of(view.select_sorted(ordered))
    assert mask[selection].all()
    assert np.array_equal(selection, np.flatnonzero(mask)[ordered])


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 513])
def test_all_false_and_all_true_masks(length):
    metrics = ExecutionMetrics()
    relation = base_relation(length, metrics)

    nothing = relation.mask(np.zeros(length, dtype=bool))
    assert nothing.num_rows == 0
    assert_position_vector(selections_of(nothing)[0], np.arange(0))
    assert nothing.column("t", "a").tolist() == []

    everything = relation.mask(np.ones(length, dtype=bool))
    assert everything.num_rows == length
    assert_position_vector(selections_of(everything)[0], np.arange(length))
    assert np.array_equal(everything.column("t", "a"), base_columns(length)[0])
    assert metrics.selection_bytes == 8 * length


@pytest.mark.parametrize("length", [1, 65, 65537])
def test_mask_over_a_join_shares_one_flatnonzero(length):
    """A joined view holds an identity group and an index-array group;
    one mask filters both, each group keeping its own position vector
    and each counting eight bytes per survivor."""
    rng = np.random.default_rng(length)
    metrics = ExecutionMetrics()
    left = base_relation(length, metrics)
    other_rows = length // 2 + 1
    right = Relation(
        {("u", "c"): np.arange(other_rows, dtype=np.int64) * 10},
        other_rows,
        sources={("u", "c"): ("other", "c")},
        counters=metrics,
    )
    right_idx = rng.integers(0, other_rows, size=length)
    joined = left.merged_with(right, None, right_idx)
    mask = rng.random(length) < 0.5
    view = joined.mask(mask)

    flat = np.flatnonzero(mask)
    left_selection, right_selection = selections_of(view)
    assert_position_vector(left_selection, flat)
    assert_position_vector(right_selection, right_idx[flat])
    assert np.array_equal(view.column("t", "a"), base_columns(length)[0][flat])
    assert np.array_equal(view.column("u", "c"), right_idx[flat] * 10)
    assert metrics.selection_bytes == 2 * 8 * len(flat)
