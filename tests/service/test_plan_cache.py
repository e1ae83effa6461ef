"""PlanCache / BitvectorFilterCache bookkeeping: LRU bound, counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.filters.cache import BitvectorFilterCache, filter_cache_key
from repro.filters.exact import ExactFilter
from repro.service.plan_cache import CachedPlan, PlanCache


def _entry(i: int) -> CachedPlan:
    from repro.plan.nodes import ScanNode

    return CachedPlan(
        fingerprint=f"fp{i}",
        pipeline="bqo",
        plan=ScanNode("t", "table"),
        template_predicates={},
        alias_tables={"t": "table"},
        num_parameters=0,
        estimated_cout=float(i),
        signature=f"sig{i}",
        optimize_seconds=0.0,
    )


def test_lru_bound_holds_under_churn():
    cache = PlanCache(capacity=4)
    for i in range(100):
        cache.put((f"q{i}", "bqo"), _entry(i))
        assert len(cache) <= 4
    assert cache.evictions == 96
    # the four most recent survive
    for i in range(96, 100):
        assert (f"q{i}", "bqo") in cache


def test_lru_recency_not_insertion_order():
    cache = PlanCache(capacity=2)
    cache.put(("a", "bqo"), _entry(0))
    cache.put(("b", "bqo"), _entry(1))
    assert cache.get(("a", "bqo")) is not None  # refresh a
    cache.put(("c", "bqo"), _entry(2))          # evicts b, not a
    assert ("a", "bqo") in cache
    assert ("b", "bqo") not in cache


def test_hit_miss_counters_and_entry_hits():
    cache = PlanCache(capacity=2)
    assert cache.get(("a", "bqo")) is None
    cache.put(("a", "bqo"), _entry(0))
    entry = cache.get(("a", "bqo"))
    cache.get(("a", "bqo"))
    assert cache.hits == 2
    assert cache.misses == 1
    assert entry.hits == 2


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)
    with pytest.raises(ValueError):
        BitvectorFilterCache(capacity=0)


def test_filter_cache_builds_once_per_key():
    cache = BitvectorFilterCache(capacity=8)
    builds = []

    def builder():
        builds.append(1)
        return ExactFilter.build([np.array([1, 2, 3])])

    key = filter_cache_key("dim", ("id",), ("cmp", "=", 1), "exact")
    f1, cached1 = cache.get_or_build(key, builder)
    f2, cached2 = cache.get_or_build(key, builder)
    assert (cached1, cached2) == (False, True)
    assert f1 is f2
    assert len(builds) == 1
    assert cache.hits == 1 and cache.misses == 1
    assert cache.size_bits() > 0


def test_filter_cache_lru_eviction():
    cache = BitvectorFilterCache(capacity=2)

    def builder():
        return ExactFilter.build([np.array([1])])

    keys = [filter_cache_key("dim", ("id",), i, "exact") for i in range(5)]
    for key in keys:
        cache.get_or_build(key, builder)
    assert len(cache) == 2
    assert cache.evictions == 3


def test_put_with_stale_generation_is_dropped():
    """A build that raced a clear() must not republish a stale entry."""
    cache = PlanCache(capacity=4)
    generation = cache.generation
    cache.clear()  # invalidation lands while the entry is being "built"
    assert not cache.put(("a", "bqo"), _entry(0), generation=generation)
    assert ("a", "bqo") not in cache
    # with the current generation the put goes through
    assert cache.put(("a", "bqo"), _entry(0), generation=cache.generation)
    assert ("a", "bqo") in cache


def test_filter_build_racing_clear_is_not_published():
    cache = BitvectorFilterCache(capacity=4)
    key = filter_cache_key("dim", ("id",), None, "exact")

    def builder():
        # invalidation arrives mid-build
        cache.clear()
        return ExactFilter.build([np.array([1, 2])])

    built, was_cached = cache.get_or_build(key, builder)
    assert not was_cached
    assert built.num_keys == 2  # caller still gets its filter
    assert len(cache) == 0      # but it was not published


def test_filter_cache_key_separates_kinds():
    a = filter_cache_key("dim", ("id",), None, "exact")
    b = filter_cache_key("dim", ("id",), None, "blocked_bloom")
    assert a != b
