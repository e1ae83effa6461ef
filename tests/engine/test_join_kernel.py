"""The code-space join kernel against a nested-loop oracle.

``CodeMatcher`` is the one match structure behind every hash join,
whichever side it indexes and whatever shape the streamed side takes
(whole relation or pool morsels).  Its three internal
shapes — distinct-code direct addressing, counting-sort offsets for
repeated codes, sort + binary search when the domain is too wide for the
rows involved (or above ``DENSE_DOMAIN_CAP``) — must all emit exactly
the pairs, in exactly the order, of the obvious double loop: streamed
rows ascending, and per streamed row its matches in indexed-side row
order.  ``join_codes`` adds the side choice (the plan's build side is
indexed unless it is larger *and* repeats a key) and the identity
convention (``None`` for "every row of this side, in order").
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.join_kernel as join_kernel
from repro.engine.join_kernel import (
    DENSE_DOMAIN_CAP as _DENSE_DOMAIN_CAP,
    DENSE_SLOTS_PER_ROW as _DENSE_SLOTS_PER_ROW,
    CodeMatcher,
    identity_to_none,
    join_codes,
    join_matcher,
    stable_code_order,
)
from repro.util.keycodes import code_domain, combine_codes


def _nested_loop(build_codes, probe_codes, indexes_probe=False):
    """(build_row, probe_row) pairs of the double loop: streamed side
    ascending, ties in indexed-side row order — probe-major when the
    build side is indexed, build-major when the probe side is."""
    pairs = [
        (build_row, probe_row)
        for probe_row, probe_code in enumerate(probe_codes.tolist())
        if probe_code >= 0
        for build_row, build_code in enumerate(build_codes.tolist())
        if build_code == probe_code
    ]
    if indexes_probe:
        pairs.sort()
    build_idx = np.array([pair[0] for pair in pairs], dtype=np.int64)
    probe_idx = np.array([pair[1] for pair in pairs], dtype=np.int64)
    return build_idx, probe_idx


def _rows(idx, rows):
    """An index the kernel may have reported as the identity."""
    return np.arange(rows, dtype=np.int64) if idx is None else idx


def _assert_same_pairs(got, want, streamed_rows=None):
    indexed_idx, streamed_idx = got[0], _rows(got[1], streamed_rows)
    assert indexed_idx.dtype == np.int64 and streamed_idx.dtype == np.int64
    assert indexed_idx.tolist() == want[0].tolist()
    assert streamed_idx.tolist() == want[1].tolist()


def _matcher(build_codes, domain, table):
    """The matcher of a join that declares enough streamed rows to earn
    a direct-addressing table (``table``; the cap still applies) or none
    at all, so only the smallest domains get one."""
    matcher = CodeMatcher(build_codes, domain, domain if table else 0)
    rows = len(build_codes) + (domain if table else 0)
    assert (matcher._sorted is not None) == (
        domain > min(_DENSE_DOMAIN_CAP, _DENSE_SLOTS_PER_ROW * rows)
    )
    return matcher


def _codes(rng, domain, rows, unique):
    if unique:
        return rng.permutation(domain)[:rows].astype(np.int64)
    return rng.integers(0, domain, rows).astype(np.int64)


_DOMAINS = [
    1,
    7,
    (1 << 16) - 1,
    1 << 16,
    (1 << 16) + 1,
    _DENSE_DOMAIN_CAP,
    _DENSE_DOMAIN_CAP + 1,  # sort + binary-search fallback
]


class TestAgainstNestedLoop:
    @pytest.mark.parametrize("domain", _DOMAINS)
    @pytest.mark.parametrize("unique", [True, False])
    @pytest.mark.parametrize("table", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_pairs_and_order(self, domain, unique, table, seed):
        rng = np.random.default_rng(100 * seed + unique)
        build_rows = int(min(domain, rng.integers(1, 40)))
        build_codes = _codes(rng, domain, build_rows, unique)
        if not unique and build_rows > 1:
            build_codes[-1] = build_codes[0]  # at least one duplicate
        # Probe: hits, misses inside the domain, and -1 (absent value).
        probe_codes = np.concatenate([
            rng.choice(build_codes, 30),
            rng.integers(0, domain, 30),
            np.full(5, -1),
        ]).astype(np.int64)
        rng.shuffle(probe_codes)
        matcher = _matcher(build_codes, domain, table)
        _assert_same_pairs(
            matcher.match(probe_codes), _nested_loop(build_codes, probe_codes)
        )
        assert matcher.unique == (len(set(build_codes.tolist())) == build_rows)

    @pytest.mark.parametrize("domain", [5, 5_000])
    @pytest.mark.parametrize("table", [True, False])
    def test_empty_build_and_empty_probe(self, domain, table):
        empty = np.array([], dtype=np.int64)
        some = np.array([0, 3, -1, 3], dtype=np.int64)
        for build_codes, probe_codes in ((empty, some), (some[:2], empty)):
            got = _matcher(build_codes, domain, table).match(probe_codes)
            _assert_same_pairs(got, (empty, empty), len(probe_codes))

    @pytest.mark.parametrize("domain", [50, 5_000])
    @pytest.mark.parametrize("unique", [True, False])
    @pytest.mark.parametrize("table", [True, False])
    def test_all_hit_and_no_hit_probes(self, domain, unique, table):
        rng = np.random.default_rng(domain + unique)
        build_codes = _codes(rng, 25, 20, unique)  # codes 0..24 only
        matcher = _matcher(build_codes, domain, table)
        all_hit = rng.choice(build_codes, 64)
        _assert_same_pairs(
            matcher.match(all_hit), _nested_loop(build_codes, all_hit), 64
        )
        no_hit = np.concatenate(
            [rng.integers(25, 50, 32), np.full(32, -1)]
        ).astype(np.int64)
        build_idx, probe_idx = matcher.match(no_hit)
        assert len(build_idx) == 0 and len(probe_idx) == 0

    def test_all_hit_unique_probe_returns_the_gather(self):
        """Every probe row hit a unique build: the build rows come back
        as gathered, one per probe row, probe rows the identity."""
        build_codes = np.array([4, 0, 2], dtype=np.int64)
        probe_codes = np.array([2, 2, 4, 0], dtype=np.int64)
        build_idx, probe_idx = _matcher(build_codes, 5, True).match(probe_codes)
        assert build_idx.tolist() == [2, 2, 0, 1]
        assert probe_idx is None

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_column_combined_codes(self, seed):
        """Two key columns combined mixed-radix, -1 poisoning included."""
        rng = np.random.default_rng(seed)
        radices = [6, 9]
        build_columns = [rng.integers(0, r, 30) for r in radices]
        probe_columns = [rng.integers(-1, r, 80) for r in radices]
        build_codes = combine_codes(build_columns, radices)
        probe_codes = combine_codes(probe_columns, radices)
        got = _matcher(build_codes, code_domain(radices), True).match(
            probe_codes
        )
        got = got[0], _rows(got[1], 80)
        want = [
            (b, p)
            for p in range(80)
            if min(column[p] for column in probe_columns) >= 0
            for b in range(30)
            if all(
                build_columns[k][b] == probe_columns[k][p] for k in range(2)
            )
        ]
        assert list(zip(got[0].tolist(), got[1].tolist())) == want

    @pytest.mark.parametrize("domain", [40, (1 << 16) + 5])
    @pytest.mark.parametrize("unique", [True, False])
    @pytest.mark.parametrize("table", [True, False])
    def test_morsel_concatenation_equals_whole_probe(
        self, domain, unique, table
    ):
        rng = np.random.default_rng(7)
        build_codes = _codes(rng, 40, 30, unique)
        probe_codes = rng.integers(-1, 40, 500).astype(np.int64)
        matcher = _matcher(build_codes, domain, table)
        whole = matcher.match(probe_codes)
        parts = []
        for start in range(0, 500, 64):
            chunk = probe_codes[start:start + 64]
            build_idx, probe_idx = matcher.match(chunk)
            parts.append((build_idx, _rows(probe_idx, len(chunk)) + start))
        _assert_same_pairs(
            (
                np.concatenate([part[0] for part in parts]),
                np.concatenate([part[1] for part in parts]),
            ),
            (whole[0], _rows(whole[1], 500)),
        )


class TestMatchStructure:
    def test_unique_builds_never_sort(self, monkeypatch):
        sorts = []
        monkeypatch.setattr(
            join_kernel, "stable_code_order",
            lambda codes, domain: sorts.append(domain)
            or stable_code_order(codes, domain),
        )
        rng = np.random.default_rng(0)
        CodeMatcher(rng.permutation(1000).astype(np.int64), 1000, 0)
        CodeMatcher(np.array([], dtype=np.int64), 10, 1)
        assert sorts == []
        CodeMatcher(np.array([1, 1, 2], dtype=np.int64), 1000, 60)
        assert sorts == [1000]

    def test_table_is_sized_by_the_rows_the_join_touches(self):
        """A small build earns its table through the probe rows it will
        serve; with few rows on both sides a wide domain sorts — and the
        cap holds whatever the row counts."""
        domain = 60_000
        build_codes = np.arange(0, 200, dtype=np.int64) * 300
        per_row = _DENSE_SLOTS_PER_ROW
        probed_by_many = CodeMatcher(build_codes, domain, 450_000)
        assert probed_by_many._rows is not None
        at_the_bound = CodeMatcher(build_codes, domain, domain // per_row - 200)
        assert at_the_bound._rows is not None
        probed_by_few = CodeMatcher(build_codes, domain, domain // per_row - 201)
        assert probed_by_few._rows is None and probed_by_few._sorted is not None
        past_the_cap = CodeMatcher(
            build_codes, _DENSE_DOMAIN_CAP + 1, 10 * _DENSE_DOMAIN_CAP
        )
        assert past_the_cap._sorted is not None

    @pytest.mark.parametrize(
        "domain", [3, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 32) + 1]
    )
    def test_narrowed_sort_is_the_stable_argsort(self, domain):
        rng = np.random.default_rng(domain % 97)
        codes = rng.integers(0, domain, 5000).astype(np.int64)
        codes[:50] = domain - 1  # the widest code, repeated
        assert np.array_equal(
            stable_code_order(codes, domain),
            np.argsort(codes, kind="stable"),
        )


# ----------------------------------------------------------------------
# Side choice, pair order and the identity convention (join_codes)
# ----------------------------------------------------------------------

# Key domains on both sides of the table rule (16 slots per row the
# join touches; the cap) for joins of at most 80 rows; the two-column
# ones combine mixed-radix.  40 slots earn a table from 3 rows up, 700
# only from 44.
_TABLE_RADICES = [[1], [3], [12], [2, 5], [40], [700]]
_SORTED_RADICES = [[(1 << 16) + 7], [_DENSE_DOMAIN_CAP + 1], [300, 400]]


@st.composite
def _joins(draw):
    """``(build_columns, probe_columns, radices)``: per key column the
    int64 codes of both sides, ``-1`` (absent) allowed on the probe
    side.  Keys come from a small pool so that hits, repeats and misses
    all occur, and the two sizes are drawn independently so that either
    side may be the larger."""
    radices = draw(
        st.sampled_from(_TABLE_RADICES) | st.sampled_from(_SORTED_RADICES)
    )
    key = st.tuples(*(st.integers(0, radix - 1) for radix in radices))
    pool = draw(st.lists(key, min_size=1, max_size=10, unique=True))

    def rows(elements):
        size = draw(st.sampled_from([0, 1, 2, 5, 11, 23, 40]))
        return draw(st.lists(elements, min_size=size, max_size=size))

    def distinct(keys):
        return draw(st.permutations(keys))[: draw(st.integers(0, len(keys)))]

    missing = (-1,) * len(radices)
    absent = st.tuples(*(st.integers(-1, radix - 1) for radix in radices))
    build = (
        distinct(pool) if draw(st.booleans())
        else rows(st.sampled_from(pool))
    )
    probe = (
        distinct(pool + [missing]) if draw(st.booleans())
        else rows(st.sampled_from(pool) | absent | st.just(missing))
    )

    def columns(rows):
        return [
            np.array([row[k] for row in rows], dtype=np.int64)
            for k in range(len(radices))
        ]

    return columns(build), columns(probe), radices


def _combined(join):
    build_columns, probe_columns, radices = join
    return (
        combine_codes(build_columns, radices),
        combine_codes(probe_columns, radices),
        code_domain(radices),
    )


class TestJoinCodes:
    @given(join=_joins())
    @settings(max_examples=300, deadline=None)
    def test_orientation_pairs_order_and_identity(self, join):
        build_codes, probe_codes, domain = _combined(join)
        build_rows, probe_rows = len(build_codes), len(probe_codes)
        build_idx, probe_idx, indexes_probe = join_codes(
            build_codes, probe_codes, domain
        )
        # The rule: index the probe side only under a larger build side
        # that repeats a key — so a unique build is never reversed.
        repeats = len(set(build_codes.tolist())) < build_rows
        assert indexes_probe == (build_rows > probe_rows and repeats)
        want = _nested_loop(build_codes, probe_codes, indexes_probe)
        # None exactly when the side is the identity; the rows otherwise.
        for got, expected, rows in (
            (build_idx, want[0], build_rows), (probe_idx, want[1], probe_rows)
        ):
            if expected.tolist() == list(range(rows)):
                assert got is None
            else:
                assert got is not None and got.dtype == np.int64
                assert got.tolist() == expected.tolist()

    @given(join=_joins(), morsel=st.integers(1, 17))
    @settings(max_examples=150, deadline=None)
    def test_morsels_of_the_streamed_side_concatenate_to_the_whole_call(
        self, join, morsel
    ):
        build_codes, probe_codes, domain = _combined(join)
        whole = join_codes(build_codes, probe_codes, domain)
        matcher, indexes_probe = join_matcher(
            build_codes, domain, len(probe_codes), lambda: probe_codes
        )
        assert indexes_probe == whole[2]
        indexed, streamed = (
            (probe_codes, build_codes) if indexes_probe
            else (build_codes, probe_codes)
        )
        parts = [np.array([], dtype=np.int64)], [np.array([], dtype=np.int64)]
        for start in range(0, len(streamed), morsel):
            chunk = streamed[start:start + morsel]
            indexed_idx, streamed_idx = matcher.match(chunk)
            parts[0].append(indexed_idx)
            parts[1].append(_rows(streamed_idx, len(chunk)) + start)
        got = (
            identity_to_none(np.concatenate(parts[0]), len(indexed)),
            identity_to_none(np.concatenate(parts[1]), len(streamed)),
        )
        if indexes_probe:
            got = got[1], got[0]
        for got_idx, whole_idx in zip(got, whole[:2]):
            assert (got_idx is None) == (whole_idx is None)
            if got_idx is not None:
                assert got_idx.tolist() == whole_idx.tolist()

    def test_larger_build_that_repeats_a_key_streams_through_the_probe(
        self, monkeypatch
    ):
        """The fact-on-build PK-FK join: 8 fact rows over 3 customers.
        The match structure is the customers' ``code -> row`` table —
        nothing is sorted — and the output is in fact-row order."""
        monkeypatch.setattr(
            join_kernel, "stable_code_order",
            lambda codes, domain: pytest.fail("sorted the larger side"),
        )
        build_codes = np.array([2, 0, 2, 1, 0, 2, 3, 1], dtype=np.int64)
        probe_codes = np.array([1, -1, 2, 0], dtype=np.int64)
        build_idx, probe_idx, indexes_probe = join_codes(
            build_codes, probe_codes, 4
        )
        assert indexes_probe
        assert build_idx.tolist() == [0, 1, 2, 3, 4, 5, 7]
        assert probe_idx.tolist() == [2, 3, 2, 0, 3, 2, 0]

    def test_pigeonhole_needs_no_look_at_the_build_codes(self, monkeypatch):
        """More build rows than codes: a repeat is certain, so no
        structure is even attempted over the build side."""
        indexed = []
        real = CodeMatcher.__init__

        def recording(self, codes, *args, **kwargs):
            indexed.append(len(codes))
            real(self, codes, *args, **kwargs)

        monkeypatch.setattr(CodeMatcher, "__init__", recording)
        build_codes = np.array([0, 1, 2, 0, 1, 2, 1], dtype=np.int64)
        probe_codes = np.array([2, 1], dtype=np.int64)
        assert join_codes(build_codes, probe_codes, 3)[2]
        assert indexed == [2]

    @pytest.mark.parametrize("domain", [8, _DENSE_DOMAIN_CAP + 1])
    def test_a_unique_build_is_never_reversed(self, domain):
        build_codes = np.array([5, 1, 7, 0, 3, 2], dtype=np.int64)
        probe_codes = np.array([7, 7, -1], dtype=np.int64)
        build_idx, probe_idx, indexes_probe = join_codes(
            build_codes, probe_codes, domain
        )
        assert not indexes_probe
        assert build_idx.tolist() == [2, 2] and probe_idx.tolist() == [0, 1]

    def test_identity_on_both_sides(self):
        """A 1:1 join of two sides in the same key order."""
        codes = np.array([3, 0, 2, 1], dtype=np.int64)
        assert join_codes(codes, codes.copy(), 4) == (None, None, False)

    @pytest.mark.parametrize(
        "idx, rows, identity",
        [
            ([], 0, True), ([0], 1, True), ([0, 1, 2], 3, True),
            ([0, 1, 2], 4, False), ([0, 2, 1, 3], 4, False),
            ([0, 0, 3, 3], 4, False), ([1, 2, 3, 3], 4, False),
        ],
    )
    def test_identity_to_none(self, idx, rows, identity):
        idx = np.array(idx, dtype=np.int64)
        assert (identity_to_none(idx, rows) is None) == identity
        assert identity_to_none(None, rows) is None
