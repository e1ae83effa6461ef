"""Tests for equi-depth histograms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.histogram import EquiDepthHistogram


class TestBuild:
    def test_counts_sum_to_total(self):
        values = np.random.default_rng(0).normal(size=1000)
        hist = EquiDepthHistogram.build(values, num_buckets=16)
        assert hist.counts.sum() == 1000

    def test_empty_input(self):
        hist = EquiDepthHistogram.build(np.array([]))
        assert hist.total_rows == 0
        assert hist.selectivity_le(5.0) == 0.5  # uninformed default

    def test_constant_column(self):
        hist = EquiDepthHistogram.build(np.full(100, 7.0))
        assert hist.selectivity_eq(7.0) == pytest.approx(1.0)
        assert hist.selectivity_le(7.0) == pytest.approx(1.0)
        assert hist.selectivity_le(6.0) == 0.0


class TestRangeSelectivity:
    def test_uniform_midpoint(self):
        values = np.arange(10_000, dtype=np.float64)
        hist = EquiDepthHistogram.build(values, num_buckets=32)
        assert hist.selectivity_le(4999.5) == pytest.approx(0.5, abs=0.02)

    def test_bounds(self):
        values = np.arange(100, dtype=np.float64)
        hist = EquiDepthHistogram.build(values)
        assert hist.selectivity_le(-1) == 0.0
        assert hist.selectivity_le(1000) == 1.0

    def test_range_selectivity_monotone(self):
        values = np.random.default_rng(1).uniform(0, 100, 5000)
        hist = EquiDepthHistogram.build(values)
        narrow = hist.selectivity_range(40, 50)
        wide = hist.selectivity_range(20, 70)
        assert 0 <= narrow <= wide <= 1

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_property_le_monotone_and_bounded(self, values):
        hist = EquiDepthHistogram.build(np.array(values))
        points = sorted([min(values), max(values), 0.0])
        sels = [hist.selectivity_le(p) for p in points]
        assert all(0.0 <= s <= 1.0 for s in sels)
        assert sels == sorted(sels)


class TestEqSelectivity:
    def test_frequent_value(self):
        values = np.concatenate([np.full(900, 5.0), np.arange(100)])
        hist = EquiDepthHistogram.build(values)
        assert hist.selectivity_eq(5.0) > 0.1

    def test_absent_value_out_of_range(self):
        hist = EquiDepthHistogram.build(np.arange(100, dtype=np.float64))
        assert hist.selectivity_eq(1e9) == 0.0


class TestInfiniteColumns:
    def test_edges_are_never_nan_without_nan_in_the_column(self):
        values = np.random.default_rng(0).standard_normal(1000)
        values[0], values[-1] = -np.inf, np.inf
        hist = EquiDepthHistogram.build(values)
        assert not np.isnan(hist.boundaries).any()
        assert hist.boundaries[0] == -np.inf
        assert hist.boundaries[-1] == np.inf
        assert hist.counts.sum() == 1000
        sels = [hist.selectivity_le(p) for p in (-np.inf, -1.0, 0.0, 1.0, np.inf)]
        assert all(0.0 <= s <= 1.0 for s in sels)
        assert sels == sorted(sels)
        assert sels[-1] == 1.0
        assert hist.selectivity_eq(0.0) > 0.0

    def test_all_infinite(self):
        values = np.array([-np.inf] * 3 + [np.inf] * 5)
        hist = EquiDepthHistogram.build(values)
        assert hist.boundaries.tolist() == [-np.inf, np.inf]
        assert hist.counts.tolist() == [8]
        assert hist.distinct.tolist() == [2]

    def test_nan_edges_stay_where_the_column_holds_nan(self):
        # np.quantile answers NaN for every quantile of such a column;
        # the edges are np.unique's of those, as before.
        values = np.array([1.0, 2.0, np.nan, np.nan])
        with np.errstate(invalid="ignore"):
            hist = EquiDepthHistogram.build(values)
        assert np.isnan(hist.boundaries).all()
