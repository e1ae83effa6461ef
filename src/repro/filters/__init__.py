"""Bitvector filter implementations.

The paper's analysis assumes bitvector filters *without false positives*
(its Property 4 / Lemma 1 equality conditions); real engines use hash
bitmaps or Bloom filters that trade accuracy for space.  This package
provides one of each, named by kind in :data:`FILTER_KINDS`:

* ``"exact"`` — :class:`ExactFilter`, set-exact semi-join semantics
  (zero false positives), the filter the theory reasons about;
* ``"blocked_bloom"`` — :class:`BlockedBloomFilter`, a cache-line-blocked
  Bloom filter (one 64-bit block per key, as in Putze et al. / modern
  engines) at a fixed 12 bits per key.

All filters share the :class:`BitvectorFilter` interface: build from a
list of key-column arrays, then test membership of probe-side key
columns, returning a boolean mask.  Filters never have false negatives.
"""

from repro.filters.base import BitvectorFilter
from repro.filters.exact import ExactFilter
from repro.filters.blocked import BlockedBloomFilter
from repro.filters.registry import create_filter, FILTER_KINDS
from repro.filters.cache import BitvectorFilterCache, filter_cache_key

__all__ = [
    "BitvectorFilter",
    "ExactFilter",
    "BlockedBloomFilter",
    "create_filter",
    "FILTER_KINDS",
    "BitvectorFilterCache",
    "filter_cache_key",
]
