"""Shared data-generation primitives for the synthetic workloads.

All functions are deterministic given a :class:`numpy.random.Generator`.
Foreign keys support Zipf-like skew (decision-support fact tables are
rarely uniform), text columns draw from small vocabularies so LIKE
predicates have meaningful selectivities, and date columns mimic
TPC-DS's integer day-number surrogate keys.
"""

from __future__ import annotations

import numpy as np


def zipf_weights(n: int, skew: float) -> np.ndarray:
    """Normalized Zipf weights over ranks 1..n (skew 0 = uniform)."""
    if n <= 0:
        raise ValueError("n must be positive")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-skew) if skew > 0 else np.ones(n)
    return weights / weights.sum()


def skewed_fk(
    rng: np.random.Generator,
    num_rows: int,
    parent_keys: np.ndarray,
    skew: float = 0.0,
) -> np.ndarray:
    """Foreign-key column referencing ``parent_keys`` with Zipf skew.

    Inverse-CDF sampling keeps this O(num_rows log n) even for skewed
    draws.  The rank-to-key mapping is shuffled so skew is not aligned
    with key order.
    """
    n = len(parent_keys)
    if n == 0:
        raise ValueError("parent_keys must be non-empty")
    if skew <= 0:
        return parent_keys[rng.integers(0, n, num_rows)]
    cdf = np.cumsum(zipf_weights(n, skew))
    draws = rng.random(num_rows)
    ranks = np.searchsorted(cdf, draws, side="left")
    shuffled = parent_keys.copy()
    rng.shuffle(shuffled)
    return shuffled[np.clip(ranks, 0, n - 1)]


def surrogate_keys(num_rows: int, start: int = 1) -> np.ndarray:
    """Dense integer surrogate keys ``start .. start + num_rows - 1``."""
    return np.arange(start, start + num_rows, dtype=np.int64)


def categorical(
    rng: np.random.Generator,
    num_rows: int,
    values: list[str],
    skew: float = 0.0,
) -> np.ndarray:
    """Text column drawn from a fixed vocabulary (optionally skewed)."""
    weights = zipf_weights(len(values), skew)
    indices = rng.choice(len(values), size=num_rows, p=weights)
    vocabulary = np.array(values, dtype=object)
    return vocabulary[indices]


def numeric(
    rng: np.random.Generator,
    num_rows: int,
    low: float,
    high: float,
    integer: bool = False,
) -> np.ndarray:
    """Uniform numeric column in ``[low, high]``."""
    if integer:
        return rng.integers(int(low), int(high) + 1, num_rows).astype(np.int64)
    return rng.uniform(low, high, num_rows)


def date_keys(
    rng: np.random.Generator,
    num_rows: int,
    first_day: int = 2450815,   # TPC-DS style Julian day numbers
    num_days: int = 365 * 5,
    skew: float = 0.3,
) -> np.ndarray:
    """Fact-side date surrogate keys with mild recency skew."""
    days = surrogate_keys(num_days, start=first_day)
    return skewed_fk(rng, num_rows, days, skew=skew)


def compound_words(
    rng: np.random.Generator,
    num_rows: int,
    prefixes: list[str],
    suffixes: list[str],
) -> np.ndarray:
    """Two-part text values (e.g. keyword-like strings for LIKE tests)."""
    left = rng.integers(0, len(prefixes), num_rows)
    right = rng.integers(0, len(suffixes), num_rows)
    words = np.empty(len(prefixes) * len(suffixes), dtype=object)
    words[:] = [f"{prefix}-{suffix}" for prefix in prefixes for suffix in suffixes]
    return words[left * len(suffixes) + right]


def scaled(base: int, scale: float, minimum: int = 8) -> int:
    """Scale a base row count, with a floor so tiny scales stay valid."""
    return max(minimum, int(round(base * scale)))
