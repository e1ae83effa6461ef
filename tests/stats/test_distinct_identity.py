"""Statistics and dictionaries equal the ``np.unique`` formulas.

Distinct counts, per-bucket distinct counts and dictionary
factorizations avoid ``np.unique``'s integer hash (presence tables,
sorted-run counting).  These tests hold them to the formulas with one
``np.unique`` per count, bucket and column: every statistic the cost
model reads and every code the engine joins on stays bit-identical, so
no estimate, plan or answer can move.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.histogram import EquiDepthHistogram
from repro.util.keycodes import ColumnDictionary
from repro.workloads import customer_lite, job_lite, star, tpcds_lite

def _reference_build(values: np.ndarray, num_buckets: int = 32):
    """The histogram formula with one ``np.unique`` per bucket:
    ``(boundaries, counts, distinct)`` for columns without infinities.
    NaN rows go in no bucket."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    ordered = ordered[~np.isnan(ordered)]
    total = len(ordered)
    if total == 0:
        empty = np.array([], dtype=np.float64)
        return empty, empty.astype(np.int64), empty.astype(np.int64)
    num_buckets = max(1, min(num_buckets, total))
    edges = np.unique(np.quantile(ordered, np.linspace(0.0, 1.0, num_buckets + 1)))
    if len(edges) < 2:
        edges = np.array([edges[0], edges[0]])
    starts = np.searchsorted(ordered, edges[:-1], side="left")
    ends = np.searchsorted(ordered, edges[1:], side="left")
    ends[-1] = total
    buckets = [ordered[start:end] for start, end in zip(starts, ends)]
    counts = np.array([len(bucket) for bucket in buckets], dtype=np.int64)
    distinct = np.array(
        [len(np.unique(bucket)) if len(bucket) else 0 for bucket in buckets],
        dtype=np.int64,
    )
    return edges, counts, distinct


def assert_reference_histogram(hist: EquiDepthHistogram, values) -> None:
    edges, counts, distinct = _reference_build(values)
    assert hist.total_rows == len(values)
    assert hist.boundaries.dtype == edges.dtype
    assert hist.boundaries.tobytes() == edges.tobytes()
    assert hist.counts.dtype == counts.dtype == hist.distinct.dtype
    assert np.array_equal(hist.counts, counts)
    assert np.array_equal(hist.distinct, distinct)


class TestBucketDistinct:
    """Per-bucket distinct counts come from the sorted column's value
    changes, equal to ``np.unique`` over every bucket."""

    @given(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, 2.5, np.nan]),
            st.floats(-1e6, 1e6),
            st.integers(-5, 5).map(float),
        ),
        min_size=1,
        max_size=300,
    ))
    @settings(max_examples=100, deadline=None)
    def test_property_equals_np_unique_per_bucket(self, values):
        values = np.array(values)
        with np.errstate(invalid="ignore"):
            assert_reference_histogram(EquiDepthHistogram.build(values), values)

    def test_skewed_integer_column(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([np.full(5000, 3), rng.integers(0, 40, 5000)])
        assert_reference_histogram(EquiDepthHistogram.build(values), values)


# The benchmark's four workloads (``perf/run.py``) at its smoke scale:
# data scale x 0.05, seed 1.
_WORKLOADS = {
    "tpcds_warm": (tpcds_lite.build_database, 3.0 * 0.05),
    "job_fresh_filters": (job_lite.build_database, 3.0 * 0.05),
    "customer_adhoc": (customer_lite.build_database, 0.15 * 0.05),
    "star_clients": (star.build_database, 2.0 * 0.05),
}


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_workload_statistics_and_dictionaries(workload):
    build_database, scale = _WORKLOADS[workload]
    database = build_database(scale, 1)
    histograms = dictionaries = 0
    for name in database.table_names:
        table = database.table(name)
        statistics = database.stats(name)
        for column_name in table.column_names:
            column = table.column(column_name)
            collected = statistics.column(column_name)
            assert collected.num_distinct == len(np.unique(column)), column_name
            if collected.histogram is not None:
                assert_reference_histogram(
                    collected.histogram, column.astype(np.float64)
                )
                histograms += 1
            if column.dtype.kind == "f":
                continue  # float columns get no dictionary
            values, codes = np.unique(column, return_inverse=True)
            dictionary = ColumnDictionary.build(column)
            assert dictionary.values.dtype == values.dtype
            if values.dtype.kind == "O":
                assert dictionary.values.tolist() == values.tolist()
            else:
                assert dictionary.values.tobytes() == values.tobytes()
            assert dictionary.codes.dtype == np.int64
            assert np.array_equal(dictionary.codes, codes)
            dictionaries += 1
    assert histograms and dictionaries
