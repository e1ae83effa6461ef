"""Abstract interface shared by all bitvector filter implementations."""

from __future__ import annotations

import abc

import numpy as np


class BitvectorFilter(abc.ABC):
    """A probabilistic (or exact) set membership filter over key tuples.

    Contract:

    * built once from the build side's key columns,
    * ``contains`` never returns ``False`` for a key that was inserted
      (no false negatives),
    * implementations may return ``True`` for keys that were *not*
      inserted (false positives), except :class:`ExactFilter`.

    Every kind builds in one serial pass over the whole build side;
    the executor builds on the calling thread at every parallelism.
    """

    #: Whether :meth:`member_bits` can answer at all.  The executor asks
    #: before resolving a probe column's dictionary, so a kind that
    #: never answers never makes a probe column be factorized for it.
    supports_member_bits = False

    @classmethod
    @abc.abstractmethod
    def build(cls, key_columns: list[np.ndarray]) -> "BitvectorFilter":
        """Construct a filter containing every key tuple in the columns.

        ``key_columns`` is a non-empty list of equal-length arrays; row
        ``i`` across the arrays forms one key tuple.
        """

    @abc.abstractmethod
    def contains(self, key_columns: list[np.ndarray]) -> np.ndarray:
        """Boolean mask: which probe rows may match an inserted key."""

    def member_bits(self, dictionary) -> np.ndarray | None:
        """Packed membership of every stored row of one probe column.

        ``dictionary`` is the probe column's table-resident
        :class:`~repro.util.keycodes.ColumnDictionary`; the answer is
        the read-only ``np.packbits`` of :meth:`contains` over the
        column's rows, in row order — a bitmap index of the filter over
        that column.  ``None`` when the kind does not keep one (the
        default: the hashed kinds probe values).
        """
        return None

    def holds_member_bits(self, dictionary) -> bool:
        """Whether :meth:`member_bits` of ``dictionary`` is already
        resident, so a call returns it without probing."""
        return False

    @property
    @abc.abstractmethod
    def size_bits(self) -> int:
        """Memory footprint of the filter payload in bits."""

    @property
    @abc.abstractmethod
    def num_keys(self) -> int:
        """Number of key tuples inserted at build time."""

    @property
    def resident_bytes(self) -> int:
        """Bytes actually resident for this filter, auxiliary structures
        included.  The default derives from :attr:`size_bits`, which
        suits the hashed kinds (their payload *is* the word array);
        implementations with side structures (membership tables, raw
        fallback columns) must override so cache-footprint accounting
        never silently under-reports a mode."""
        return (self.size_bits + 7) // 8

    def describe(self) -> dict:
        """Geometry of the resident representation for explain output.

        Every mode a filter can be in — including fallback modes —
        must surface here with at least ``mode`` and ``resident_bytes``.
        """
        return {
            "mode": type(self).__name__,
            "resident_bytes": self.resident_bytes,
        }

    @property
    def may_have_false_positives(self) -> bool:
        """Whether this implementation can report spurious matches."""
        return True

    @property
    def has_distinct_keys(self) -> bool:
        """Whether the inserted key tuples are known to be pairwise
        distinct — a unique build side.  Together with
        ``may_have_false_positives`` being False it makes the filter a
        complete stand-in for its join: a probe row that passes has
        exactly one match.  False when the kind does not track it."""
        return False


def validate_key_columns(key_columns: list[np.ndarray]) -> int:
    """Validate shape constraints and return the row count."""
    if not key_columns:
        raise ValueError("filter requires at least one key column")
    length = len(key_columns[0])
    for column in key_columns[1:]:
        if len(column) != length:
            raise ValueError("key columns must have equal lengths")
    return length
