"""Equi-depth histograms over numeric columns.

Each bucket holds (approximately) the same number of rows; range
selectivities interpolate linearly within the boundary buckets, the
standard textbook approach and close to what commercial engines do.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.util.keycodes import run_starts, unique_values


@dataclasses.dataclass(frozen=True)
class EquiDepthHistogram:
    """Equi-depth histogram: ``boundaries`` has ``num_buckets + 1`` edges.

    ``counts[i]`` rows fall in ``[boundaries[i], boundaries[i + 1])``
    except the last bucket which is closed on the right.
    ``distinct[i]`` estimates the distinct values per bucket, used for
    equality selectivity.  NaN rows sit in no bucket: they count in
    ``total_rows`` only, so no range or equality estimate counts them.
    """

    boundaries: np.ndarray
    counts: np.ndarray
    distinct: np.ndarray
    total_rows: int

    @classmethod
    def build(cls, values: np.ndarray, num_buckets: int = 32) -> "EquiDepthHistogram":
        """Build an equi-depth histogram from a numeric array."""
        values = np.asarray(values, dtype=np.float64)
        total = len(values)
        # Sorting puts every NaN last; the buckets cover the rest.
        ordered = np.sort(values)
        valid = total
        if total and np.isnan(ordered[-1]):
            valid = int(np.count_nonzero(~np.isnan(ordered)))
            ordered = ordered[:valid]
        if valid == 0:
            empty = np.array([], dtype=np.float64)
            return cls(empty, empty.astype(np.int64), empty.astype(np.int64), total)
        num_buckets = max(1, min(num_buckets, valid))
        quantiles = np.linspace(0.0, 1.0, num_buckets + 1)
        with np.errstate(invalid="ignore"):
            edges = np.quantile(ordered, quantiles)
        # A NaN edge interpolated between two infinite order statistics
        # (-inf + inf * 0, or inf - inf): take the lower of the two.
        lost = np.isnan(edges)
        if lost.any():
            lower = np.floor(quantiles[lost] * (valid - 1)).astype(np.int64)
            edges[lost] = ordered[lower]
        # Collapse duplicate edges (heavy skew) while keeping coverage.
        edges = unique_values(edges)
        if len(edges) < 2:
            edges = np.array([edges[0], edges[0]])
        start_indices = np.searchsorted(ordered, edges[:-1], side="left")
        end_indices = np.searchsorted(ordered, edges[1:], side="left")
        end_indices[-1] = valid
        counts = end_indices - start_indices
        # Buckets are slices of the sorted column: a bucket's distinct
        # values are its first row plus the value changes after it.
        changes = np.cumsum(run_starts(ordered))
        distinct = np.where(
            counts > 0,
            changes[end_indices - 1] - changes[start_indices] + 1,
            0,
        )
        return cls(edges, counts, distinct, total)

    @property
    def valid_fraction(self) -> float:
        """Fraction of rows that are not NaN: 1.0 for a NaN-free column."""
        if self.total_rows == 0:
            return 0.0
        return int(self.counts.sum()) / self.total_rows

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------

    def selectivity_le(self, value: float) -> float:
        """Estimated fraction of rows with ``column <= value``."""
        if self.total_rows == 0:
            return 0.5
        if len(self.boundaries) < 2:
            return 0.0  # every row is NaN
        if value < self.boundaries[0]:
            return 0.0
        if value >= self.boundaries[-1]:
            return self.valid_fraction
        bucket = int(np.searchsorted(self.boundaries, value, side="right")) - 1
        bucket = min(bucket, len(self.counts) - 1)
        rows_before = int(self.counts[:bucket].sum())
        lo = self.boundaries[bucket]
        hi = self.boundaries[bucket + 1]
        width = hi - lo
        if width <= 0:
            fraction = 1.0
        elif np.isinf(width):
            # A bucket reaching an infinity has no scale to interpolate
            # on: count half of it.
            fraction = 0.5
        else:
            fraction = (value - lo) / width
        return (rows_before + fraction * self.counts[bucket]) / self.total_rows

    def selectivity_range(self, low: float | None, high: float | None) -> float:
        """Estimated fraction of rows with ``low <= column <= high``."""
        high_sel = self.valid_fraction if high is None else self.selectivity_le(high)
        low_sel = 0.0 if low is None else self.selectivity_le(low)
        return max(0.0, min(1.0, high_sel - low_sel))

    def selectivity_gt(self, value: float) -> float:
        """Estimated fraction of rows with ``column > value``."""
        return self.valid_fraction - self.selectivity_le(value)

    def selectivity_eq(self, value: float) -> float:
        """Estimated fraction of rows with ``column == value``."""
        if self.total_rows == 0 or len(self.boundaries) < 2:
            return 0.0
        if value < self.boundaries[0] or value > self.boundaries[-1]:
            return 0.0
        bucket = int(np.searchsorted(self.boundaries, value, side="right")) - 1
        bucket = max(0, min(bucket, len(self.counts) - 1))
        bucket_rows = int(self.counts[bucket])
        bucket_distinct = max(1, int(self.distinct[bucket]))
        return (bucket_rows / bucket_distinct) / self.total_rows
