"""The code-space join kernel against a nested-loop oracle.

``_BuildMatcher`` is the one match structure behind every hash-join
probe shape (whole relation, zone-pruned morsels, pool morsels).  Its
three internal shapes — unique-build direct addressing, counting-sort
offsets for duplicate build codes, sort + binary search when the domain
is too wide for the rows involved (or above ``_DENSE_DOMAIN_CAP``) —
must all emit exactly the pairs, in exactly the order, of the obvious
double loop: probe rows ascending, and per probe row its build matches
in build-row order.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.executor as executor_module
from repro.engine.executor import (
    _BuildMatcher,
    _DENSE_DOMAIN_CAP,
    _DENSE_SLOTS_PER_ROW,
    _stable_code_order,
)
from repro.util.keycodes import code_domain, combine_codes


def _nested_loop(build_codes, probe_codes):
    """(build_row, probe_row) pairs, probe-major, build rows ascending."""
    pairs = [
        (build_row, probe_row)
        for probe_row, probe_code in enumerate(probe_codes.tolist())
        if probe_code >= 0
        for build_row, build_code in enumerate(build_codes.tolist())
        if build_code == probe_code
    ]
    build_idx = np.array([pair[0] for pair in pairs], dtype=np.int64)
    probe_idx = np.array([pair[1] for pair in pairs], dtype=np.int64)
    return build_idx, probe_idx


def _assert_same_pairs(got, want):
    assert got[0].dtype == np.int64 and got[1].dtype == np.int64
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tolist() == want[1].tolist()


def _matcher(build_codes, domain, table):
    """The matcher of a join that declares enough probe rows to earn a
    direct-addressing table (``table``; the cap still applies) or none
    at all, so only the smallest domains get one."""
    matcher = _BuildMatcher(build_codes, domain, domain if table else 0)
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

    @pytest.mark.parametrize("domain", [5, 5_000])
    @pytest.mark.parametrize("table", [True, False])
    def test_empty_build_and_empty_probe(self, domain, table):
        empty = np.array([], dtype=np.int64)
        some = np.array([0, 3, -1, 3], dtype=np.int64)
        for build_codes, probe_codes in ((empty, some), (some[:2], empty)):
            got = _matcher(build_codes, domain, table).match(probe_codes)
            _assert_same_pairs(got, (empty, empty))

    @pytest.mark.parametrize("domain", [50, 5_000])
    @pytest.mark.parametrize("unique", [True, False])
    @pytest.mark.parametrize("table", [True, False])
    def test_all_hit_and_no_hit_probes(self, domain, unique, table):
        rng = np.random.default_rng(domain + unique)
        build_codes = _codes(rng, 25, 20, unique)  # codes 0..24 only
        matcher = _matcher(build_codes, domain, table)
        all_hit = rng.choice(build_codes, 64)
        _assert_same_pairs(
            matcher.match(all_hit), _nested_loop(build_codes, all_hit)
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
        assert probe_idx.tolist() == [0, 1, 2, 3]

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
            build_idx, probe_idx = matcher.match(probe_codes[start:start + 64])
            parts.append((build_idx, probe_idx + start))
        _assert_same_pairs(
            (
                np.concatenate([part[0] for part in parts]),
                np.concatenate([part[1] for part in parts]),
            ),
            whole,
        )


class TestMatchStructure:
    def test_unique_builds_never_sort(self, monkeypatch):
        sorts = []
        monkeypatch.setattr(
            executor_module, "_stable_code_order",
            lambda codes, domain: sorts.append(domain)
            or _stable_code_order(codes, domain),
        )
        rng = np.random.default_rng(0)
        _BuildMatcher(rng.permutation(1000).astype(np.int64), 1000, 0)
        _BuildMatcher(np.array([], dtype=np.int64), 10, 1)
        assert sorts == []
        _BuildMatcher(np.array([1, 1, 2], dtype=np.int64), 1000, 60)
        assert sorts == [1000]

    def test_table_is_sized_by_the_rows_the_join_touches(self):
        """A small build earns its table through the probe rows it will
        serve; with few rows on both sides a wide domain sorts — and the
        cap holds whatever the row counts."""
        domain = 60_000
        build_codes = np.arange(0, 200, dtype=np.int64) * 300
        per_row = _DENSE_SLOTS_PER_ROW
        probed_by_many = _BuildMatcher(build_codes, domain, 450_000)
        assert probed_by_many._rows is not None
        at_the_bound = _BuildMatcher(build_codes, domain, domain // per_row - 200)
        assert at_the_bound._rows is not None
        probed_by_few = _BuildMatcher(build_codes, domain, domain // per_row - 201)
        assert probed_by_few._rows is None and probed_by_few._sorted is not None
        past_the_cap = _BuildMatcher(
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
            _stable_code_order(codes, domain),
            np.argsort(codes, kind="stable"),
        )
