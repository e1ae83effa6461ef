"""Randomized property tests for the succinct bitvector core.

Every operation is checked against a plain-numpy oracle: ``rank1``
against ``cumsum`` over the unpacked bool mask, ``select1`` and
``positions`` against ``flatnonzero``, combination against bool ``&``,
``|``, ``~``.  Densities cover empty / sparse / dense / all-ones and
lengths deliberately straddle word and block boundaries (63/64/65,
511/512/513, 65535/65536/65537).
"""

import numpy as np
import pytest

from repro.succinct import Bitvector, popcount

LENGTHS = [0, 1, 2, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1000,
           4095, 4096, 4097, 65535, 65536, 65537]
DENSITIES = [0.0, 0.01, 0.33, 0.5, 0.97, 1.0]


def random_mask(rng, length, density):
    if density == 0.0:
        return np.zeros(length, dtype=bool)
    if density == 1.0:
        return np.ones(length, dtype=bool)
    return rng.random(length) < density


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("density", DENSITIES)
def test_rank_select_against_numpy_oracles(length, density):
    rng = np.random.default_rng(length * 1000 + int(density * 100))
    mask = random_mask(rng, length, density)
    vector = Bitvector.from_mask(mask)

    expected_positions = np.flatnonzero(mask)
    assert vector.count() == len(expected_positions)
    assert np.array_equal(vector.positions(), expected_positions)
    assert np.array_equal(vector.to_mask(), mask)

    # rank1 at every boundary 0..length equals the exclusive cumsum.
    queries = np.arange(length + 1, dtype=np.int64)
    oracle_rank = np.concatenate(
        [[0], np.cumsum(mask.astype(np.int64))]
    )
    assert np.array_equal(vector.rank1(queries), oracle_rank)

    # select1 over every rank recovers flatnonzero exactly.
    ranks = np.arange(len(expected_positions), dtype=np.int64)
    assert np.array_equal(vector.select1(ranks), expected_positions)

    # get() agrees with the mask everywhere.
    if length:
        probes = rng.integers(0, length, size=min(length, 512))
        assert np.array_equal(vector.get(probes), mask[probes])


@pytest.mark.parametrize("length", [*range(0, 75), 127, 1001, 65541])
def test_bulk_decode_equals_the_packed_mask_at_every_width(length):
    """``positions()`` / ``to_mask()`` go through a bool view of the
    unpacked bytes: exactly the mask that was packed — last bit set,
    nothing read past it — for widths that fill neither their last byte
    nor their last word, as a bool / int64 array the caller may write to
    without touching the vector."""
    rng = np.random.default_rng(length)
    mask = rng.random(length) < 0.4
    mask[-1:] = True
    vector = Bitvector.from_mask(mask)
    decoded, positions = vector.to_mask(), vector.positions()
    assert decoded.dtype == np.bool_ and positions.dtype == np.int64
    assert np.array_equal(decoded, mask)
    assert np.array_equal(positions, np.flatnonzero(mask))
    decoded[:] = False
    positions += 5
    assert np.array_equal(vector.to_mask(), mask)
    assert np.array_equal(vector.positions(), np.flatnonzero(mask))


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 129, 1000, 65537])
def test_word_level_combination(length):
    rng = np.random.default_rng(length + 7)
    left_mask = random_mask(rng, length, 0.4)
    right_mask = random_mask(rng, length, 0.6)
    left = Bitvector.from_mask(left_mask)
    right = Bitvector.from_mask(right_mask)

    assert np.array_equal((left & right).to_mask(), left_mask & right_mask)
    assert np.array_equal((left | right).to_mask(), left_mask | right_mask)
    assert np.array_equal(left.invert().to_mask(), ~left_mask)
    # invert must not leak tail bits past num_bits into the count.
    assert left.invert().count() == int((~left_mask).sum())


def test_from_positions_roundtrip():
    rng = np.random.default_rng(42)
    for length in [1, 64, 65, 1000, 70000]:
        count = rng.integers(0, length + 1)
        positions = np.sort(
            rng.choice(length, size=count, replace=False)
        ).astype(np.int64)
        vector = Bitvector.from_positions(positions, length)
        assert np.array_equal(vector.positions(), positions)
        assert vector.count() == len(positions)
        if len(positions):
            ranks = np.arange(len(positions), dtype=np.int64)
            assert np.array_equal(vector.select1(ranks), positions)


def test_rank_select_inverse_property():
    rng = np.random.default_rng(11)
    mask = rng.random(200_000) < 0.2
    vector = Bitvector.from_mask(mask)
    ones = vector.count()
    ranks = rng.integers(0, ones, size=5000)
    selected = vector.select1(ranks)
    # rank1(select1(k)) == k and the selected position holds a one.
    assert np.array_equal(vector.rank1(selected), ranks)
    assert vector.get(selected).all()


def test_zeros_constructor_and_its_inverse():
    for length in [0, 1, 63, 64, 65, 513]:
        zeros = Bitvector.zeros(length)
        ones = zeros.invert()
        assert zeros.count() == 0
        assert ones.count() == length
        assert np.array_equal(ones.positions(), np.arange(length))
        if length:
            assert ones.rank1(np.array([length]))[0] == length


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Bitvector.zeros(64) & Bitvector.zeros(65)
    with pytest.raises(ValueError):
        Bitvector(np.zeros(2, dtype=np.uint64), 64)


def test_popcount_matches_python():
    rng = np.random.default_rng(3)
    words = rng.integers(0, 1 << 63, size=257, dtype=np.uint64)
    expected = np.array([bin(int(w)).count("1") for w in words])
    assert np.array_equal(popcount(words), expected)


def test_footprint_accounting_is_lazy():
    vector = Bitvector.from_mask(np.ones(1 << 16, dtype=bool))
    words_bytes = (1 << 16) // 8
    assert vector.nbytes == words_bytes
    assert vector.directory_nbytes == 0  # no rank/select issued yet
    vector.rank1(np.array([123]))
    assert vector.directory_nbytes > 0
    # flat directory overhead stays ~3.2% of the words
    assert vector.directory_nbytes <= words_bytes * 0.04 + 64
    assert vector.resident_bytes == vector.nbytes + vector.directory_nbytes
