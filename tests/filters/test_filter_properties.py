"""Property-based tests: the filter contracts the paper's theory needs.

Lemma 1 (absorption) and Property 4 (associativity) hold *exactly* only
for filters without false positives; every implementation must still be
free of false negatives (Property 2's reduction never drops a matching
tuple).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import BlockedBloomFilter, ExactFilter

_key_lists = st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=200)


def int_col(values):
    return np.array(values, dtype=np.int64)


class TestNoFalseNegativesProperty:
    @given(keys=_key_lists)
    @settings(max_examples=60, deadline=None)
    def test_exact(self, keys):
        f = ExactFilter.build([int_col(keys)])
        if keys:
            assert f.contains([int_col(keys)]).all()

    @given(keys=_key_lists)
    @settings(max_examples=60, deadline=None)
    def test_blocked_bloom(self, keys):
        f = BlockedBloomFilter.build([int_col(keys)])
        if keys:
            assert f.contains([int_col(keys)]).all()


class TestHashedPassesContainExactProperty:
    """The hashed kind's passes are a superset of the exact kind's:
    false positives add rows, never drop one."""

    @given(keys=_key_lists, probes=_key_lists)
    @settings(max_examples=60, deadline=None)
    def test_blocked_bloom_contains_exact(self, keys, probes):
        exact = ExactFilter.build([int_col(keys)]).contains([int_col(probes)])
        hashed = BlockedBloomFilter.build([int_col(keys)]).contains(
            [int_col(probes)]
        )
        assert not (exact & ~hashed).any()

    @given(
        keys=st.lists(
            st.tuples(st.integers(0, 30), st.integers(-5, 5)),
            min_size=1, max_size=100,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocked_bloom_multicolumn_keeps_every_tuple(self, keys):
        columns = [int_col([k[0] for k in keys]), int_col([k[1] for k in keys])]
        assert BlockedBloomFilter.build(columns).contains(columns).all()


class TestExactSetSemanticsProperty:
    @given(keys=_key_lists, probes=_key_lists)
    @settings(max_examples=60, deadline=None)
    def test_exact_equals_python_set(self, keys, probes):
        f = ExactFilter.build([int_col(keys)])
        if not probes:
            return
        expected = [value in set(keys) for value in probes]
        assert f.contains([int_col(probes)]).tolist() == expected

    @given(
        keys=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=0, max_size=100,
        ),
        probes=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=1, max_size=100,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_multicolumn_equals_tuple_set(self, keys, probes):
        f = ExactFilter.build(
            [int_col([k[0] for k in keys]), int_col([k[1] for k in keys])]
        )
        result = f.contains(
            [int_col([p[0] for p in probes]), int_col([p[1] for p in probes])]
        )
        expected = [p in set(keys) for p in probes]
        assert result.tolist() == expected


class TestAbsorptionRuleProperty:
    """Lemma 1: for R1 -> R2 (key join), |R1 / R2| == |R1 join R2| when
    the filter has no false positives."""

    @given(
        fk=st.lists(st.integers(0, 49), min_size=1, max_size=300),
        present=st.sets(st.integers(0, 49), min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_semijoin_count_equals_key_join_count(self, fk, present):
        r2_keys = int_col(sorted(present))          # unique key column
        r1_fk = int_col(fk)
        semi = ExactFilter.build([r2_keys]).contains([r1_fk]).sum()
        join = np.isin(r1_fk, r2_keys).sum()        # key join multiplicity 1
        assert semi == join
