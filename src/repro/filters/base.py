"""Abstract interface shared by all bitvector filter implementations."""

from __future__ import annotations

import abc

import numpy as np

from repro.testing.faults import fault_point


class BitvectorFilter(abc.ABC):
    """A probabilistic (or exact) set membership filter over key tuples.

    Contract:

    * built once from the build side's key columns,
    * ``contains`` never returns ``False`` for a key that was inserted
      (no false negatives),
    * implementations may return ``True`` for keys that were *not*
      inserted (false positives), except :class:`ExactFilter`.

    Partitioned builds
    ------------------
    A filter kind may additionally support a
    *partition-build-then-merge* protocol (the Bloom kinds do; the exact
    kind always builds serially) so the executor can construct one
    filter from per-morsel build-side partitions on the worker pool
    without breaking the single-build-then-shared probe contract:

    1. :meth:`build_geometry` fixes the shared shape of the filter from
       the *total* key count (Bloom variants: bit-array size and hash
       count — every partial must agree or the merged words would be
       meaningless);
    2. :meth:`build_partial` constructs an intermediate filter over one
       partition of the build rows under that geometry (safe to run
       concurrently, one call per partition);
    3. :meth:`merge` folds the partials — in partition order, on one
       thread — into the final published filter.

    The merged filter must answer :meth:`contains` identically to a
    serial :meth:`build` over the concatenated partitions (bit-identical
    word arrays for the hashed kinds), because cost accounting and
    result byte-equivalence both assume the partitioning is
    unobservable.  :meth:`build_partitioned` is the
    serial reference implementation of the protocol; the parallel
    executor replays the same three steps with step 2 fanned out.
    """

    #: Whether this implementation provides the partitioned-build hooks
    #: (:meth:`build_geometry` / :meth:`build_partial` / :meth:`merge`).
    #: The executor falls back to a serial :meth:`build` when False.
    supports_partitioned_build = False

    #: Whether :meth:`member_bits` can answer at all.  The executor asks
    #: before resolving a probe column's dictionary, so a kind that
    #: never answers never makes a probe column be factorized for it.
    supports_member_bits = False

    @classmethod
    @abc.abstractmethod
    def build(cls, key_columns: list[np.ndarray], **options) -> "BitvectorFilter":
        """Construct a filter containing every key tuple in the columns.

        ``key_columns`` is a non-empty list of equal-length arrays; row
        ``i`` across the arrays forms one key tuple.
        """

    @classmethod
    def build_geometry(cls, num_keys: int, **options) -> dict:
        """Shared shape parameters for partition builds over ``num_keys``
        total keys.  The default empty geometry suits filters whose
        partials need no coordination."""
        return {}

    @classmethod
    def build_partial(
        cls, key_columns: list[np.ndarray], geometry: dict, **options
    ) -> "BitvectorFilter":
        """Build the partial filter of one partition under ``geometry``."""
        raise NotImplementedError(
            f"{cls.__name__} does not support partitioned builds"
        )

    @classmethod
    def merge(
        cls, partials: list["BitvectorFilter"], num_keys: int, **options
    ) -> "BitvectorFilter":
        """Fold partition partials (in partition order) into the final
        filter over ``num_keys`` total build keys."""
        raise NotImplementedError(
            f"{cls.__name__} does not support partitioned builds"
        )

    @classmethod
    def build_partitioned(
        cls, partitions: list[list[np.ndarray]], context=None, **options
    ) -> "BitvectorFilter":
        """Serial reference of the partition-build-then-merge protocol.

        ``partitions`` is a non-empty list of key-column lists; the
        concatenation of the partitions (in order) is the build side.
        Equivalent to ``cls.build`` over that concatenation — tests
        assert the equivalence, the parallel executor relies on it.

        ``context`` (an :class:`~repro.engine.context.ExecutionContext`)
        arms a deadline/cancel check before each partition, making long
        builds abortable at the same granularity the parallel fan-out
        gets from its per-task checks; each partition is also a
        ``"filter.build_partition"`` fault site, mirroring the
        executor's fan-out tasks.
        """
        if not partitions:
            raise ValueError("build_partitioned requires at least one partition")
        num_keys = sum(validate_key_columns(part) for part in partitions)
        geometry = cls.build_geometry(num_keys, **options)
        partials = []
        for part in partitions:
            if context is not None:
                context.check()
            fault_point("filter.build_partition")
            partials.append(cls.build_partial(part, geometry, **options))
        return cls.merge(partials, num_keys, **options)

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

    def false_positive_rate(self) -> float:
        """Estimated probability a non-member passes the filter."""
        return 0.0

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
