"""Tests for the bitvector filter family."""

import numpy as np
import pytest

from repro.filters import (
    BlockedBloomFilter,
    BloomFilter,
    ExactFilter,
    create_filter,
    FILTER_KINDS,
)


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
        assert f.false_positive_rate() == 0.0

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


class TestBloomFilter:
    def test_no_false_negatives(self):
        keys = int_col(np.random.default_rng(0).integers(0, 10**9, 5000))
        f = BloomFilter.build([keys])
        assert f.contains([keys]).all()

    def test_false_positive_rate_reasonable(self):
        rng = np.random.default_rng(1)
        keys = int_col(rng.integers(0, 10**12, 10_000))
        f = BloomFilter.build([keys], bits_per_key=10)
        probes = int_col(rng.integers(10**12, 2 * 10**12, 20_000))
        fp = f.contains([probes]).mean()
        # theoretical ~0.8% at 10 bits/key; allow generous slack
        assert fp < 0.05

    def test_more_bits_fewer_false_positives(self):
        rng = np.random.default_rng(2)
        keys = int_col(rng.integers(0, 10**12, 5000))
        probes = int_col(rng.integers(10**12, 2 * 10**12, 20_000))
        small = BloomFilter.build([keys], bits_per_key=4).contains([probes]).mean()
        large = BloomFilter.build([keys], bits_per_key=16).contains([probes]).mean()
        assert large < small

    def test_fp_estimate_tracks_fill(self):
        keys = int_col(range(1000))
        f = BloomFilter.build([keys], bits_per_key=10)
        assert 0.0 < f.fill_fraction() < 1.0
        assert 0.0 <= f.false_positive_rate() <= 1.0

    def test_empty_filter_rejects_all(self):
        f = BloomFilter.build([int_col([])])
        assert not f.contains([int_col([1])]).any()

    def test_multi_column(self):
        f = BloomFilter.build([int_col([1, 2]), int_col([5, 6])])
        assert f.contains([int_col([1, 2]), int_col([5, 6])]).all()


class TestBlockedBloomFilter:
    def test_no_false_negatives(self):
        keys = int_col(np.random.default_rng(3).integers(0, 10**9, 5000))
        f = BlockedBloomFilter.build([keys])
        assert f.contains([keys]).all()

    def test_false_positive_rate_bounded(self):
        rng = np.random.default_rng(4)
        keys = int_col(rng.integers(0, 10**12, 10_000))
        f = BlockedBloomFilter.build([keys], bits_per_key=12)
        probes = int_col(rng.integers(10**12, 2 * 10**12, 20_000))
        assert f.contains([probes]).mean() < 0.10

    def test_size_reported(self):
        f = BlockedBloomFilter.build([int_col(range(100))], bits_per_key=12)
        assert f.size_bits >= 100 * 12 - 64


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
        assert reordered.false_positive_rate() == built.false_positive_rate()


class TestRegistry:
    def test_known_kinds(self):
        assert set(FILTER_KINDS) == {"exact", "bloom", "blocked_bloom"}

    @pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
    def test_create_each_kind(self, kind):
        f = create_filter(kind, [int_col([1, 2, 3])])
        assert f.contains([int_col([1])]).all()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown filter kind"):
            create_filter("cuckoo", [int_col([1])])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            create_filter("exact", [int_col([1, 2]), int_col([1])])


class TestBloomWordPacking:
    def test_bits_packed_into_uint64_words(self):
        f = BloomFilter.build([int_col(range(1000))], bits_per_key=10)
        assert f._words.dtype == np.uint64
        # 8x denser than the seed's bool array: one bit per bit.
        assert f._words.nbytes * 8 < f.size_bits + 64
        assert f.size_bits >= 1000 * 10

    def test_probe_positions_not_copied_to_int64(self):
        # uint64 hash positions index the word array directly; the
        # filter still has no false negatives after the repack.
        rng = np.random.default_rng(9)
        keys = int_col(rng.integers(0, 10**12, 4000))
        f = BloomFilter.build([keys])
        assert f.contains([keys]).all()

    def test_blocked_filter_blocks_stay_uint64(self):
        f = BlockedBloomFilter.build([int_col(range(500))])
        assert f._blocks.dtype == np.uint64
        assert f.contains([int_col(range(500))]).all()
