"""Tests for the bitvector filter family."""

import re

import numpy as np
import pytest

from repro.filters import (
    BlockedBloomFilter,
    ExactFilter,
    create_filter,
    FILTER_KINDS,
)
from repro.filters.registry import filter_class_for


def int_col(values):
    return np.array(values, dtype=np.int64)


class TestExactFilter:
    def test_membership(self):
        f = ExactFilter.build([int_col([1, 2, 3])])
        assert f.contains([int_col([0, 1, 2, 3, 4])]).tolist() == [
            False, True, True, True, False,
        ]

    def test_no_false_positives_guarantee(self):
        f = ExactFilter.build([int_col(range(100))])
        probes = int_col(range(100, 200))
        assert not f.contains([probes]).any()
        assert not f.may_have_false_positives

    def test_multi_column_tuples(self):
        f = ExactFilter.build([int_col([1, 2]), int_col([10, 20])])
        # (1,20) is not a member even though 1 and 20 each appear
        result = f.contains([int_col([1, 1, 2]), int_col([10, 20, 20])])
        assert result.tolist() == [True, False, True]

    def test_string_keys(self):
        f = ExactFilter.build([np.array(["a", "b"], dtype=object)])
        assert f.contains([np.array(["b", "z"], dtype=object)]).tolist() == [True, False]

    def test_empty_build_side(self):
        f = ExactFilter.build([int_col([])])
        assert not f.contains([int_col([1, 2])]).any()

    def test_num_keys_and_size(self):
        f = ExactFilter.build([int_col([5, 6, 7])])
        assert f.num_keys == 3
        assert f.size_bits == 3 * 64


class TestBlockedBloomFilter:
    def test_no_false_negatives(self):
        keys = int_col(np.random.default_rng(3).integers(0, 10**9, 5000))
        f = BlockedBloomFilter.build([keys])
        assert f.contains([keys]).all()

    def test_false_positive_rate_bounded(self):
        rng = np.random.default_rng(4)
        keys = int_col(rng.integers(0, 10**12, 10_000))
        f = BlockedBloomFilter.build([keys])
        probes = int_col(rng.integers(10**12, 2 * 10**12, 20_000))
        assert f.contains([probes]).mean() < 0.10
        assert f.may_have_false_positives

    def test_size_reported(self):
        f = BlockedBloomFilter.build([int_col(range(100))])
        assert f.size_bits >= 100 * 12 - 64

    def test_empty_filter_rejects_all(self):
        f = BlockedBloomFilter.build([int_col([])])
        assert not f.contains([int_col([1])]).any()

    def test_multi_column(self):
        f = BlockedBloomFilter.build([int_col([1, 2]), int_col([5, 6])])
        assert f.contains([int_col([1, 2]), int_col([5, 6])]).all()

    def test_blocks_stay_uint64(self):
        f = BlockedBloomFilter.build([int_col(range(500))])
        assert f._blocks.dtype == np.uint64
        assert f.contains([int_col(range(500))]).all()

    def test_one_key_sets_at_most_four_bits_in_one_block(self):
        f = BlockedBloomFilter.build([int_col([123456789])])
        occupied = np.flatnonzero(f._blocks)
        assert len(occupied) == 1
        bits = int(np.unpackbits(f._blocks[occupied].view(np.uint8)).sum())
        assert 1 <= bits <= 4

    @pytest.mark.parametrize("build_keys", [1_000, 30_000])
    def test_measured_rate_at_twelve_bits_per_key(self, build_keys):
        """At 12 bits per key the measured rate is about 1.2 %."""
        f = BlockedBloomFilter.build([int_col(np.arange(build_keys) * 7 + 3)])
        measured = f.contains([int_col(-np.arange(1, 200_001))]).mean()
        assert 0.005 < measured < 0.03

    def test_constructor_takes_no_bits_per_key(self):
        with pytest.raises(TypeError):
            BlockedBloomFilter(
                1, 0, np.zeros(1, dtype=np.uint64), bits_per_key=4
            )


def _layout_columns(layout: str, rng):
    if layout == "clustered":
        return [np.sort(rng.integers(0, 4000, 30_000))]
    if layout == "shuffled":
        return [rng.integers(0, 4000, 30_000)]
    if layout == "primary_key":
        return [rng.permutation(25_000)]
    if layout == "strings":
        return [
            np.array(
                [f"k{int(v) % 701}" for v in rng.integers(0, 4000, 20_000)],
                dtype=object,
            )
        ]
    if layout == "multi_column":
        keys = rng.integers(0, 500, 25_000)
        return [keys, np.array([f"s{int(v) % 97}" for v in keys], dtype=object)]
    raise AssertionError(layout)


def _probe_for(columns, rng):
    probe_keys = rng.integers(-100, 6000, 8_000)
    if columns[0].dtype.kind in "OUS":
        return [np.array([f"k{int(v) % 719}" for v in probe_keys], dtype=object)]
    probe = [probe_keys]
    for _ in columns[1:]:
        probe.append(
            np.array([f"s{int(v) % 101}" for v in probe_keys], dtype=object)
        )
    return probe


class TestBuildOrderIndependence:
    """A filter is one pass over the whole build side, and that side's
    row order depends on the plan (join order, selections, morsel
    gathers): the filter it yields must not."""

    @pytest.mark.parametrize(
        "layout",
        ["clustered", "shuffled", "primary_key", "strings", "multi_column"],
    )
    @pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
    def test_reordered_build_side_gives_the_same_filter(self, kind, layout):
        rng = np.random.default_rng(sorted(FILTER_KINDS).index(kind) * 10 + len(layout))
        columns = _layout_columns(layout, rng)
        order = rng.permutation(len(columns[0]))
        probe = _probe_for(columns, rng)
        built = FILTER_KINDS[kind].build(columns)
        reordered = FILTER_KINDS[kind].build([column[order] for column in columns])
        assert reordered.num_keys == built.num_keys == len(columns[0])
        assert reordered.size_bits == built.size_bits
        assert np.array_equal(reordered.contains(probe), built.contains(probe))
        assert reordered.contains(columns).all()


class TestHashedPassesContainExact:
    """The hashed kind may pass a probe key the exact filter rejects (a
    false positive), never the reverse; the exact filter passes exactly
    the build side's key tuples."""

    @pytest.mark.parametrize(
        "layout",
        ["clustered", "shuffled", "primary_key", "strings", "multi_column"],
    )
    def test_blocked_passes_contain_exact_passes(self, layout):
        rng = np.random.default_rng(100 + len(layout))
        columns = _layout_columns(layout, rng)
        probe = _probe_for(columns, rng)
        exact = ExactFilter.build(columns).contains(probe)
        hashed = BlockedBloomFilter.build(columns).contains(probe)
        members = set(zip(*(column.tolist() for column in columns)))
        expected = [key in members for key in zip(*(c.tolist() for c in probe))]
        assert exact.tolist() == expected
        assert exact.any() and not exact.all()
        assert not (exact & ~hashed).any()


def _dtype_keys(dtype: str):
    """Build-side keys of one dtype, and probes that hit and miss them."""
    if dtype == "object":
        return (
            np.array([f"k{i}" for i in range(50)], dtype=object),
            np.array([f"k{i}" for i in range(0, 100, 3)], dtype=object),
        )
    if dtype == "bool":
        return np.array([True]), np.array([True, False, True])
    return np.arange(0, 100, 2).astype(dtype), np.arange(120).astype(dtype)


@pytest.mark.parametrize("dtype", ["int32", "uint64", "float64", "bool", "object"])
@pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
def test_every_key_dtype_keeps_every_build_key(kind, dtype):
    """Join keys reach the filter as whatever dtype the column has."""
    keys, probes = _dtype_keys(dtype)
    f = FILTER_KINDS[kind].build([keys])
    assert f.contains([keys]).all()
    passed = f.contains([probes])
    members = np.isin(probes, keys)
    assert passed.dtype == bool and passed.shape == probes.shape
    assert passed[members].all()
    if not f.may_have_false_positives:
        assert np.array_equal(passed, members)


@pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
def test_empty_probe_side_gives_an_empty_mask(kind):
    for build in (int_col([1, 2, 3]), int_col([])):
        passed = FILTER_KINDS[kind].build([build]).contains([int_col([])])
        assert passed.dtype == bool and passed.shape == (0,)


class TestRegistry:
    def test_known_kinds(self):
        assert set(FILTER_KINDS) == {"exact", "blocked_bloom"}

    @pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
    def test_create_each_kind(self, kind):
        f = create_filter(kind, [int_col([1, 2, 3])])
        assert f.contains([int_col([1])]).all()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown filter kind"):
            create_filter("cuckoo", [int_col([1])])

    @pytest.mark.parametrize("kind", ["bloom", "", "EXACT", "blocked"])
    def test_unknown_kind_names_the_known_ones(self, kind):
        """The deleted classic kind ``"bloom"`` is as unknown as any
        misspelling: no kind answers under an old or near name."""
        message = (
            f"unknown filter kind {kind!r}; "
            "expected one of ['blocked_bloom', 'exact']"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            create_filter(kind, [int_col([1])])
        with pytest.raises(ValueError, match=re.escape(message)):
            filter_class_for(kind)

    @pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
    def test_filter_class_for_each_kind(self, kind):
        assert filter_class_for(kind) is FILTER_KINDS[kind]
        assert type(create_filter(kind, [int_col([1])])) is FILTER_KINDS[kind]

    @pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
    def test_build_takes_no_options(self, kind):
        with pytest.raises(TypeError):
            FILTER_KINDS[kind].build([int_col([1])], bits_per_key=8)
        with pytest.raises(TypeError):
            create_filter(kind, [int_col([1])], bits_per_key=8)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            create_filter("exact", [int_col([1, 2]), int_col([1])])
