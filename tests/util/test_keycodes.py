"""Tests for exact joint key encoding."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.util.keycodes import (
    ColumnDictionary,
    _presence_offsets,
    _unique_inverse,
    combine_codes,
    count_distinct,
    encode_into_domain,
    joint_codes,
    joint_codes_and_domain,
    single_table_codes,
    unique_values,
)


class TestJointCodes:
    def test_single_column_equality(self):
        left = np.array([1, 2, 3, 7])
        right = np.array([3, 3, 9])
        codes_l, codes_r = joint_codes([left], [right])
        assert codes_l[2] == codes_r[0] == codes_r[1]
        assert codes_r[2] not in codes_l

    def test_multi_column_no_cross_collisions(self):
        # (1, 2) vs (2, 1) must differ even though the value sets match
        left = [np.array([1]), np.array([2])]
        right = [np.array([2]), np.array([1])]
        codes_l, codes_r = joint_codes(left, right)
        assert codes_l[0] != codes_r[0]

    def test_string_keys(self):
        left = np.array(["a", "b"], dtype=object)
        right = np.array(["b", "c"], dtype=object)
        codes_l, codes_r = joint_codes([left], [right])
        assert codes_l[1] == codes_r[0]
        assert codes_l[0] != codes_r[1]

    def test_column_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            joint_codes([np.array([1])], [np.array([1]), np.array([2])])

    def test_empty_columns_raises(self):
        with pytest.raises(ValueError):
            joint_codes([], [])

    @given(
        left=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
        right=st.lists(st.integers(-50, 50), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_codes_match_iff_values_match(self, left, right):
        left_arr = np.array(left, dtype=np.int64)
        right_arr = np.array(right, dtype=np.int64)
        codes_l, codes_r = joint_codes([left_arr], [right_arr])
        for i, lv in enumerate(left):
            for j, rv in enumerate(right):
                assert (codes_l[i] == codes_r[j]) == (lv == rv)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_multicolumn_exactness(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        codes_l, codes_r = joint_codes([a, b], [a, b])
        # identical sides: code i == code j iff tuple i == tuple j
        for i in range(len(pairs)):
            for j in range(len(pairs)):
                assert (codes_l[i] == codes_r[j]) == (pairs[i] == pairs[j])


class TestSingleTableCodes:
    def test_groups_equal_tuples(self):
        a = np.array([1, 1, 2])
        b = np.array([5, 5, 5])
        codes = single_table_codes([a, b])
        assert codes[0] == codes[1] != codes[2]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            single_table_codes([])

    def test_wide_key_does_not_overflow(self):
        # 40 columns of 2-value domains would naively need 2**40 radix
        # steps; with >32 columns of larger domains the naive product
        # wraps int64.  The guard re-densifies instead of wrapping.
        rng = np.random.default_rng(0)
        columns = [rng.integers(0, 1000, 64) for _ in range(40)]
        codes = single_table_codes(columns)
        tuples = list(zip(*(c.tolist() for c in columns)))
        for i in range(len(codes)):
            for j in range(len(codes)):
                assert (codes[i] == codes[j]) == (tuples[i] == tuples[j])

    def test_matches_seed_semantics_on_narrow_keys(self):
        a = np.array([0, 1, 0, 1])
        b = np.array([0, 0, 1, 1])
        codes = single_table_codes([a, b])
        assert len(np.unique(codes)) == 4


class TestEncodeIntoDomain:
    def test_codes_and_absences(self):
        domain = np.array([2, 5, 9])
        codes = encode_into_domain(np.array([5, 1, 9, 12, 2]), domain)
        assert codes.tolist() == [1, -1, 2, -1, 0]

    def test_empty_domain(self):
        codes = encode_into_domain(np.array([1, 2]), np.array([], dtype=np.int64))
        assert codes.tolist() == [-1, -1]

    def test_string_domain(self):
        domain = np.array(["a", "c"], dtype=object)
        codes = encode_into_domain(np.array(["c", "b"], dtype=object), domain)
        assert codes.tolist() == [1, -1]

    def test_uint64_probe_beyond_int64_never_wraps_onto_negative_keys(self):
        """2**64 - 5 cast to int64 is -5; it must stay absent."""
        domain = np.array([-5, -3, 0, 2])
        probes = np.array([2**64 - 5, 2**64 - 3, 7, 2], dtype=np.uint64)
        assert encode_into_domain(probes, domain).tolist() == [-1, -1, -1, 3]
        dictionary = ColumnDictionary(domain, np.arange(4))
        assert dictionary._lookup_table() is not None  # dense-table path
        assert dictionary.encode(probes).tolist() == [-1, -1, -1, 3]

    def test_uint64_domain_beyond_int64_never_wraps_onto_negative_probes(self):
        domain = np.array([0, 2, 2**64 - 5], dtype=np.uint64)
        codes = encode_into_domain(np.array([-5, 2, 7]), domain)
        assert codes.tolist() == [-1, 1, -1]
        only_big = np.array([2**64 - 5], dtype=np.uint64)
        assert encode_into_domain(np.array([-5]), only_big).tolist() == [-1]

    def test_dictionary_join_translation_does_not_wrap_uint64(self):
        """The join variant: ``translate_to`` maps probe codes into the
        build domain; a wrapped uint64 would join -5 with 2**64 - 5."""
        signed = ColumnDictionary.build(np.array([-5, -3, 0, 2]))
        unsigned = ColumnDictionary.build(
            np.array([2**64 - 5, 2**64 - 3, 7, 2], dtype=np.uint64)
        )
        # unsigned.values is sorted: [2, 7, 2**64 - 5, 2**64 - 3]
        assert unsigned.translate_to(signed).tolist() == [3, -1, -1, -1]
        assert signed.translate_to(unsigned).tolist() == [-1, -1, -1, 0]


class TestCombineCodes:
    def test_single_column_passthrough(self):
        codes = np.array([0, 2, -1])
        assert combine_codes([codes], [3]) is codes

    def test_mixed_radix_combination(self):
        combined = combine_codes(
            [np.array([0, 1, 1]), np.array([2, 0, 2])], [2, 3]
        )
        assert combined.tolist() == [2, 3, 5]

    def test_invalid_code_poisons_row(self):
        combined = combine_codes(
            [np.array([0, -1]), np.array([-1, 1])], [2, 3]
        )
        assert combined.tolist() == [-1, -1]

    def test_overflow_returns_none(self):
        columns = [np.array([0])] * 3
        assert combine_codes(columns, [2**31, 2**31, 2**31]) is None


class TestObjectColumnsFactorizeByHashing:
    """Object columns skip ``np.unique``'s row sort; nothing else moves."""

    @staticmethod
    def _same(dictionary: ColumnDictionary, column: np.ndarray) -> None:
        values, codes = np.unique(column, return_inverse=True)
        assert dictionary.values.dtype == values.dtype == object
        assert dictionary.values.tolist() == values.tolist()
        assert dictionary.codes.dtype == np.int64
        assert dictionary.codes.tolist() == codes.tolist()
        assert count_distinct(column) == len(values)

    @given(st.lists(st.text(alphabet="ab%_\n", max_size=3), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_property_equals_np_unique(self, strings):
        column = np.array(strings, dtype=object)
        self._same(ColumnDictionary.build(column), column)

    def test_job_lite_text_columns(self):
        from repro.workloads import job_lite

        database = job_lite.build_database(scale=0.05)
        checked = 0
        for name in database.table_names:
            table = database.table(name)
            for column_name in table.column_names:
                column = table.column(column_name)
                if column.dtype.kind == "O":
                    self._same(database.dictionary(name, column_name), column)
                    checked += 1
        assert checked >= 6

    def test_numeric_distinct_counts(self):
        assert count_distinct(np.array([3, 1, 3, 2])) == 3
        assert count_distinct(np.array([], dtype=object)) == 0


class TestTranslationMemo:
    def test_translation_is_computed_once_and_read_only(self):
        source = ColumnDictionary.build(np.array(["a", "c", "d"], dtype=object))
        target = ColumnDictionary.build(np.array(["b", "c", "d", "e"], dtype=object))
        mapping = source.translate_to(target)
        assert mapping.tolist() == [-1, 1, 2]
        assert source.translate_to(target) is mapping
        assert not mapping.flags.writeable

    def test_equal_domains_translate_to_none(self):
        keys = ColumnDictionary.build(np.array([5, 7, 9]))
        foreign = ColumnDictionary.build(np.array([9, 9, 5, 7, 5]))
        subset = ColumnDictionary.build(np.array([5, 9]))
        assert keys.translate_to(keys) is None
        assert foreign.translate_to(keys) is None
        assert keys.translate_to(foreign) is None
        # Same length is not enough, nor is being fully contained.
        assert ColumnDictionary.build(np.array([5, 7, 8])).translate_to(
            keys
        ).tolist() == [0, 1, -1]
        assert subset.translate_to(keys).tolist() == [0, 2]

    def test_translate_codes_hands_int64_downstream(self):
        source = ColumnDictionary.build(np.array([1, 2, 3]))
        target = ColumnDictionary.build(np.array([2, 3, 4]))
        rows = np.array([2, 0, 1, 1])
        assert source.translate_to(target).dtype == np.int32
        translated = source.translate_codes(target, rows)
        assert translated.dtype == np.int64
        assert translated.tolist() == [1, -1, 0, 0]
        same = ColumnDictionary.build(np.array([3, 1, 2, 2]))
        assert source.translate_codes(same, rows) is rows

    def test_memo_dies_with_the_target(self):
        import gc

        source = ColumnDictionary.build(np.array([1, 2, 3]))
        target = ColumnDictionary.build(np.array([2, 3, 4]))
        source.translate_to(target)
        assert len(source._translations) == 1
        del target
        gc.collect()
        assert len(source._translations) == 0


# ----------------------------------------------------------------------
# Distinct values without np.unique's integer hash
# ----------------------------------------------------------------------

_INTEGER_DTYPES = [
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64,
]


@st.composite
def _integer_columns(draw):
    """Integer columns over a compact window anywhere in the dtype's
    range (the presence table) or over the whole range (the sort)."""
    dtype = draw(st.sampled_from(_INTEGER_DTYPES))
    info = np.iinfo(dtype)
    if draw(st.booleans()):
        lo = draw(st.integers(int(info.min), int(info.max)))
        hi = min(int(info.max), lo + draw(st.integers(0, 5000)))
    else:
        lo, hi = int(info.min), int(info.max)
    values = draw(st.lists(st.integers(lo, hi), max_size=60))
    return np.array(values, dtype=dtype)


_FLOAT_SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -1.5]


@st.composite
def _float_columns(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype is np.float32 else 64
    values = draw(st.lists(
        st.one_of(st.sampled_from(_FLOAT_SPECIALS), st.floats(width=width)),
        max_size=60,
    ))
    return np.array(values, dtype=dtype)


_COLUMNS = st.one_of(
    _integer_columns(),
    _float_columns(),
    st.lists(st.booleans(), max_size=20).map(lambda v: np.array(v, dtype=bool)),
)

_EDGE_COLUMNS = [
    np.array([], dtype=np.int64),
    np.array([], dtype=np.float64),
    np.array([], dtype=bool),
    np.array([7], dtype=np.int8),
    np.array([-0.0]),
    np.array([np.nan]),
    np.array([True]),
    # uint64 above the int64 range, compact and sparse.
    np.array([2**64 - 1, 2**63 + 5, 2**64 - 1, 2**63], dtype=np.uint64),
    np.array([2**64 - 1, 3, 2**63, 3], dtype=np.uint64),
    np.array([-(2**63), 2**63 - 1, 0], dtype=np.int64),
    np.array([-128, 127, -128, 0], dtype=np.int8),
    np.array([0.0, -0.0, np.nan, -np.inf, np.nan, np.inf, -0.0]),
    np.array([-0.0, 0.0], dtype=np.float32),
]


class TestDistinctWithoutHashing:
    """Counts, distinct values and factorizations equal ``np.unique``'s
    on every route: presence table, sort and (elsewhere) hashing."""

    @staticmethod
    def _same(column: np.ndarray) -> None:
        # Bytes, not values: NaN payloads and the sign of zero count.
        # (NumPy's sort writes NaNs back canonical, its argsort keeps
        # them, so the two np.unique calls may differ in a NaN's bits.)
        distinct = np.unique(column)
        got = unique_values(column)
        assert got.dtype == distinct.dtype
        assert got.tobytes() == distinct.tobytes()
        assert count_distinct(column) == len(distinct)
        values, codes = np.unique(column, return_inverse=True)
        got, inverse = _unique_inverse(column)
        assert got.dtype == values.dtype
        assert got.tobytes() == values.tobytes()
        assert inverse.dtype == np.int64
        assert np.array_equal(inverse, codes)
        dictionary = ColumnDictionary.build(column)
        assert dictionary.values.tobytes() == values.tobytes()
        assert np.array_equal(dictionary.codes, codes)

    @given(_COLUMNS)
    @settings(max_examples=300, deadline=None)
    def test_property_equals_np_unique(self, column):
        self._same(column)

    @pytest.mark.parametrize("index", range(len(_EDGE_COLUMNS)))
    def test_edge_columns(self, index):
        self._same(_EDGE_COLUMNS[index])

    def test_large_compact_and_sparse_columns(self):
        rng = np.random.default_rng(5)
        for column in (
            rng.integers(0, 150_000, 450_000),
            rng.integers(-(2**40), 2**40, 50_000),
        ):
            self._same(column)

    def test_routes(self):
        """A span within ``dense_table_worthwhile`` scatters; wider
        spans sort.  (Observed through the presence offsets.)"""
        assert _presence_offsets(np.arange(10) * 100) is not None
        assert _presence_offsets(np.array([0, 1 << 23])) is None
        assert _presence_offsets(np.array([0.0, 1.0])) is None
        assert _presence_offsets(np.array([], dtype=np.int64)) is None

    def test_single_table_and_joint_codes_keep_their_values(self):
        left = np.array([5, 3, 5, 900], dtype=np.int16)
        right = np.array([3, 7], dtype=np.uint8)
        codes_l, codes_r, domain = joint_codes_and_domain([left], [right])
        merged = np.concatenate([left, right]).astype(np.int64)
        _, expected = np.unique(merged, return_inverse=True)
        assert np.array_equal(codes_l, expected[:4])
        assert np.array_equal(codes_r, expected[4:])
        assert domain == 4
        assert single_table_codes([left]).tolist() == [1, 0, 1, 2]


def test_no_hashing_np_unique_in_the_source():
    """``np.unique`` without ``return_inverse=True`` hashes integers on
    NumPy >= 2.3; distinct counts and values go through
    ``count_distinct`` / ``unique_values`` instead."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
            ):
                continue
            inverse = any(
                keyword.arg == "return_inverse"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            )
            if not inverse:
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert not offenders, offenders
