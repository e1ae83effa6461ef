"""The indexed ExactFilter: no factorization at probe time.

The indexed filter factorizes once at construction and probes via
dictionary lookups; only the float fallback still factorizes per probe.
Answers are held to a brute-force Python set of the build key tuples.
"""

import numpy as np

from repro.filters.exact import ExactFilter
from repro.util import keycodes


def int_col(values):
    return np.array(values, dtype=np.int64)


def brute_force(build, probes):
    """Membership of each probe tuple in the set of build tuples, NaN
    equal to NaN (the semantics of ``np.unique`` factorization)."""

    def key(row):
        return tuple("nan" if value != value else value for value in row)

    members = {key(row) for row in zip(*(c.tolist() for c in build))}
    return np.array(
        [key(row) in members for row in zip(*(c.tolist() for c in probes))],
        dtype=bool,
    )


class TestNoProbeTimeFactorization:
    def test_contains_runs_zero_factorizations(self):
        f = ExactFilter.build([int_col([1, 5, 9]), int_col([2, 4, 6])])
        probes = [int_col([1, 5, 7, 9]), int_col([2, 4, 0, 6])]
        before = keycodes.factorization_count()
        for _ in range(5):
            result = f.contains(probes)
        after = keycodes.factorization_count()
        assert after == before, (
            f"{after - before} factorizations during probes; probes must "
            "use the construction-time dictionaries"
        )
        assert result.tolist() == [True, True, False, True]

    def test_construction_factorizes_each_column_once(self):
        before = keycodes.factorization_count()
        ExactFilter.build([int_col([1, 2]), int_col([3, 4])])
        after = keycodes.factorization_count()
        assert after - before == 2

    def test_float_fallback_probe_refactorizes(self):
        """Float keys probe by joint factorization, once per probe."""
        f = ExactFilter.build([np.array([1.0, 5.0, 9.0])])
        before = keycodes.factorization_count()
        f.contains([np.array([1.0, 2.0, 3.0])])
        f.contains([np.array([1.0, 2.0, 3.0])])
        assert keycodes.factorization_count() - before == 2

    def test_indexed_agrees_with_brute_force(self):
        rng = np.random.default_rng(11)
        build = [int_col(rng.integers(0, 50, 200)),
                 int_col(rng.integers(0, 7, 200))]
        probes = [int_col(rng.integers(-5, 60, 500)),
                  int_col(rng.integers(-2, 9, 500))]
        f = ExactFilter.build(build)
        assert np.array_equal(f.contains(probes), brute_force(build, probes))


class TestIndexedEdgeCases:
    def test_string_keys_indexed(self):
        f = ExactFilter.build([np.array(["a", "b", "c"], dtype=object)])
        before = keycodes.factorization_count()
        result = f.contains([np.array(["b", "z", "a"], dtype=object)])
        assert keycodes.factorization_count() == before
        assert result.tolist() == [True, False, True]

    def test_probe_values_outside_build_domain(self):
        f = ExactFilter.build([int_col([10, 20, 30])])
        result = f.contains([int_col([-1000, 10, 25, 10**9])])
        assert result.tolist() == [False, True, False, False]

    def test_describe_reports_geometry_in_every_mode(self):
        indexed = ExactFilter.build([int_col(range(100))])
        info = indexed.describe()
        assert info["mode"] == "indexed"
        assert info["presence_slots"] == 101
        assert info["resident_bytes"] > 0

        pairs = ExactFilter.build([int_col([1, 1, 2]), int_col([5, 5, 6])])
        assert pairs.describe()["code_set"] == 2

        floats = ExactFilter.build([np.array([1.0, np.nan])])
        info = floats.describe()
        assert info["mode"] == "float-fallback"
        assert info["resident_bytes"] >= 16  # the retained raw column

        wide = [int_col(np.arange(2**21)) for _ in range(3)]
        overflow = ExactFilter.build(wide)
        info = overflow.describe()
        assert info["mode"] == "overflow-fallback"
        assert info["resident_bytes"] >= sum(c.nbytes for c in wide)

    def test_mixed_dtype_probe(self):
        f = ExactFilter.build([int_col([1, 2, 3])])
        result = f.contains([np.array([1, 4], dtype=np.int32)])
        assert result.tolist() == [True, False]

    def test_empty_build_side(self):
        f = ExactFilter.build([int_col([])])
        assert not f.contains([int_col([1, 2])]).any()


class TestFloatAndExtremeDomains:
    def test_nan_keys_match_nan(self):
        """np.unique treats NaN == NaN, and so does the engine's join
        fallback; float keys take the joint factorization path so the
        filter agrees with it."""
        build = [np.array([1.0, np.nan, 3.0])]
        probes = [np.array([np.nan, 3.0, 2.0])]
        f = ExactFilter.build(build)
        found = f.contains(probes)
        assert np.array_equal(found, brute_force(build, probes))
        assert found.tolist() == [True, True, False]

    def test_uint64_beyond_int64_does_not_crash(self):
        big = np.array([2**63 + 5, 2**63 + 7], dtype=np.uint64)
        f = ExactFilter.build([big])
        assert f.contains([big]).all()
        probe = np.array([2**63 + 6], dtype=np.uint64)
        assert not f.contains([probe]).any()

    def test_uint64_probe_wrap_is_not_a_false_positive(self):
        """An exact filter has no false positives: uint64 probes past
        int64 must not wrap onto negative build keys."""
        f = ExactFilter.build([np.array([-5, -3, 0, 2])])
        probe = np.array([2**64 - 5, 2**64 - 3, 7], dtype=np.uint64)
        assert f.contains([probe]).tolist() == [False, False, False]
        # ...also past the dense lookup table (sparse build domain).
        sparse = ExactFilter.build([np.array([-5, -3, 0, 2, 10**12])])
        assert sparse.contains([probe]).tolist() == [False, False, False]

    def test_indexed_mode_does_not_retain_raw_columns(self):
        f = ExactFilter.build([int_col([1, 2, 3])])
        assert f._key_columns is None
        assert f.contains([int_col([2, 9])]).tolist() == [True, False]
