"""Filter kind registry so pipelines can select implementations by name."""

from __future__ import annotations

import numpy as np

from repro.filters.base import BitvectorFilter
from repro.filters.blocked import BlockedBloomFilter
from repro.filters.exact import ExactFilter

FILTER_KINDS: dict[str, type[BitvectorFilter]] = {
    "exact": ExactFilter,
    "blocked_bloom": BlockedBloomFilter,
}


def filter_class_for(kind: str) -> type[BitvectorFilter]:
    """The filter class of the named kind; ``ValueError`` when unknown.

    >>> filter_class_for("cuckoo")
    Traceback (most recent call last):
    ...
    ValueError: unknown filter kind 'cuckoo'; expected one of ['blocked_bloom', 'exact']
    """
    try:
        return FILTER_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown filter kind {kind!r}; expected one of {sorted(FILTER_KINDS)}"
        ) from None


def create_filter(kind: str, key_columns: list[np.ndarray]) -> BitvectorFilter:
    """Build a bitvector filter of the named kind.

    >>> import numpy as np
    >>> f = create_filter("exact", [np.array([1, 2, 3])])
    >>> f.contains([np.array([2, 9])]).tolist()
    [True, False]
    """
    return filter_class_for(kind).build(key_columns)
