"""Exact bitvector filter: true semi-join semantics, no false positives.

This is the filter the paper's theory assumes ("if the bitvector filters
have no false positives", Property 4 and Lemmas 1/3).  It is *indexed*:
construction factorizes each build-side key column once into a sorted
dictionary (:class:`repro.util.keycodes.ColumnDictionary`) and stores
the sorted set of combined key codes.  A probe then encodes its values
through the dictionaries and answers membership with one vectorized
lookup — no re-factorization of the build keys at probe time, which is
what makes repeated filter applications cheap enough for the paper's
cost model to hold.

Probes of stored columns skip even the per-row encode:
:meth:`ExactFilter.contains_dictionary_codes` takes the probe rows as
codes in the probe columns' table-resident dictionaries and answers
with one gather through a memoized ``probe code -> member`` table.

Float key columns keep their raw build values and probe by joint
factorization instead: ``np.unique`` treats NaN as equal to NaN while
ordered dictionary lookups cannot, and the engine's join fallback
factorizes jointly — the filter must agree with it on NaN keys.  So do
keys whose mixed-radix code product overflows int64.  Decision-support
join keys are integers and strings, so this costs nothing in practice.

Builds are always serial: the executor builds from stored dictionary
codes (:meth:`ExactFilter.from_dictionary_codes`) when every key has
table provenance, and from the gathered values otherwise.  The class
keeps the base default ``supports_partitioned_build = False``.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.filters.base import BitvectorFilter, validate_key_columns
from repro.succinct import Bitvector
from repro.util.keycodes import (
    ColumnDictionary,
    code_domain,
    combine_codes,
    joint_codes,
)

# Largest combined key domain for which a packed membership bitvector
# is kept alongside the sorted code set (1 MiB at 1 bit per slot — the
# same memory that used to buy a 2^20-slot bool table now spans 2^23).
_MEMBER_TABLE_CAP = 1 << 23


def _packed_table_worthwhile(domain: int, count: int) -> bool:
    """Cost model for the packed membership bitvector.

    The bool-table predecessor used ``dense_table_worthwhile`` (4x
    sparsity, 8 bits/slot).  At 1 bit/slot the same bytes-per-member
    break-even sits at 32x sparsity; the floor rises with it so small
    domains always qualify.
    """
    return 0 < domain <= max(32 * count, 8192) and domain <= _MEMBER_TABLE_CAP


# Domains small enough that a decoded bool view of the member bitvector
# is trivially cache-resident (<= 128 KiB).  Below this, one bool gather
# beats the word-probe's shift/mask op chain, so probes go through a
# lazily decoded view; above it the packed word probe wins on cache
# residency (the crossover is measured in BENCH_succinct_filters.json).
_PROBE_VIEW_CAP = 1 << 17


class ExactFilter(BitvectorFilter):
    """Collision-free membership filter (a sorted code-set over key tuples)."""

    # Per-instance state; the defaults are what an indexed-mode filter
    # assembled field by field (``from_dictionary_codes``) starts from.
    _mode = "indexed"
    _key_columns: list[np.ndarray] | None = None  # fallback modes only
    _dictionaries: list[ColumnDictionary] | None = None
    _code_set: np.ndarray | None = None
    _member_table: Bitvector | None = None
    _probe_view: np.ndarray | None = None
    # (build table dictionary, its bool presence table): single-column
    # filters built from stored codes, see ``from_dictionary_codes``.
    _presence: tuple[ColumnDictionary, np.ndarray] | None = None

    def __init__(self, key_columns: list[np.ndarray]) -> None:
        key_columns = [np.asarray(c) for c in key_columns]
        self._num_keys = validate_key_columns(key_columns)
        self._member_memo = weakref.WeakKeyDictionary()
        if any(column.dtype.kind in "fc" for column in key_columns):
            # Float keys: stay on joint factorization for NaN parity
            # with the engine's fallback join path (see module doc).
            self._key_columns = key_columns
            self._mode = "float-fallback"
        elif not self._index(
            [ColumnDictionary.build(c) for c in key_columns]
        ):
            # Mixed-radix overflow (astronomically wide keys): keep the
            # raw columns and fall back to joint factorization probes.
            self._key_columns = key_columns
            self._mode = "overflow-fallback"
        # The raw build columns are not retained in indexed mode: the
        # dictionaries' (values, codes) pair reconstructs them exactly
        # (values[codes]) and is never larger — codes are int64 while
        # string columns are object arrays.

    def _index(self, dictionaries: list[ColumnDictionary]) -> bool:
        """Enter indexed mode over per-column *private* dictionaries
        (sorted distinct build values + each build row's code), or
        return False when their radix product overflows.

        The sorted set of combined codes needs no sort: a single-column
        key uses every private code, and a compact multi-column domain
        reads the set off a presence bitmap; only sparse wide domains
        pay ``np.unique`` (over int64 codes, never values).
        """
        radices = [d.num_values for d in dictionaries]
        combined = combine_codes([d.codes for d in dictionaries], radices)
        if combined is None:
            return False
        domain = code_domain(radices)
        member: Bitvector | None = None
        if len(dictionaries) == 1:
            code_set = np.arange(radices[0], dtype=np.int64)
        elif _packed_table_worthwhile(domain, len(combined)):
            member = Bitvector.from_positions(combined, domain)
            code_set = member.positions()
        else:
            code_set = np.unique(combined)
        self._dictionaries = dictionaries
        self._code_set = code_set
        if _packed_table_worthwhile(domain, len(code_set)):
            # Packed membership bitvector over the combined key domain:
            # repeated probes become one word gather + shift per element
            # at 1 bit per domain slot.
            if member is None:
                member = Bitvector.from_positions(code_set, domain)
            self._member_table = member
        return True

    @classmethod
    def from_dictionary_codes(
        cls,
        dictionaries: list[ColumnDictionary],
        code_columns: list[np.ndarray],
    ) -> "ExactFilter | None":
        """The filter over build rows given as stored dictionary codes.

        ``code_columns[i]`` holds each build row's code in
        ``dictionaries[i]``, the build column's table-resident
        dictionary (see :meth:`repro.engine.relation.Relation.
        dictionary_codes`).  Field for field the filter
        ``ExactFilter(values)`` over the same rows, with nothing
        factorized: per column a presence scatter over the table
        dictionary picks the private domain (``values[present]``, still
        sorted) and its running count re-numbers the row codes.

        A single-column filter keeps its presence table — the only thing
        that outlives construction — so its first probe per probe
        dictionary translates that dictionary into the build table's (a
        dense lookup for integer keys) instead of searching every
        distinct probe value in the sparse private domain.

        ``None`` when the private radix product overflows: the caller
        builds from values and lands in the overflow fallback.
        """
        private: list[ColumnDictionary] = []
        present = None
        for dictionary, codes in zip(dictionaries, code_columns):
            # One slot past the domain stays False: where a probe value
            # absent from the build table (translated code -1) lands.
            present = np.zeros(dictionary.num_values + 1, dtype=bool)
            present[codes] = True
            renumber = np.cumsum(present[:-1]) - 1
            private.append(
                ColumnDictionary(
                    dictionary.values[present[:-1]], renumber[codes]
                )
            )
        built = cls.__new__(cls)
        built._num_keys = len(code_columns[0])
        built._member_memo = weakref.WeakKeyDictionary()
        if not built._index(private):
            return None
        if len(private) == 1:
            built._presence = (dictionaries[0], present)
        return built

    @classmethod
    def build(cls, key_columns: list[np.ndarray], **options) -> "ExactFilter":
        return cls(key_columns)

    def contains(self, key_columns: list[np.ndarray]) -> np.ndarray:
        validate_key_columns(key_columns)
        if self._num_keys == 0:
            return np.zeros(len(key_columns[0]), dtype=bool)
        if self._code_set is None:
            # Fallback modes keep the raw build columns.
            build_codes, probe_codes = joint_codes(
                self._key_columns, key_columns
            )
            return np.isin(probe_codes, build_codes)
        return self.contains_codes(self.encode(key_columns))

    def encode(self, key_columns: list[np.ndarray]) -> np.ndarray:
        """Combined build-domain codes for probe tuples (-1 = no match).

        Indexed path only (callers must hold a filter with a code set,
        which is every filter over non-float keys below ~2^62 combined
        domain size).
        """
        assert self._dictionaries is not None
        coded = [
            dictionary.encode(np.asarray(column))
            for dictionary, column in zip(self._dictionaries, key_columns)
        ]
        radices = [d.num_values for d in self._dictionaries]
        combined = combine_codes(coded, radices)
        assert combined is not None  # radices fit at construction time
        return combined

    def contains_dictionary_codes(
        self,
        dictionaries: list[ColumnDictionary],
        code_columns: list[np.ndarray],
    ) -> np.ndarray | None:
        """Membership of probe rows given as *probe-side* dictionary codes.

        ``code_columns[i]`` holds each probe row's code in
        ``dictionaries[i]`` — the table-resident dictionary of the
        probed column, not this filter's build dictionary.  Equal to
        ``contains([d.values[c] for d, c in zip(...)])`` without ever
        materializing or searching the values.  Single-column keys
        answer with one gather through a bool ``probe code -> member``
        table memoized per probe dictionary (:meth:`_probe_members`);
        multi-column keys translate each column's codes into the
        filter's own dictionary (``ColumnDictionary.translate_to``,
        memoized on the probe dictionary), combine them mixed-radix and
        ask :meth:`contains_codes`.

        Member tables are keyed weakly by the dictionary *object*: a
        dictionary rebuilt after ``Database.invalidate_dictionaries`` is
        a new object and starts a fresh entry, and entries die with
        their dictionary.  Filters are shared across morsel workers; a
        racing first probe computes the same table twice, which is
        benign.

        Returns ``None`` in the fallback modes (float keys, radix
        overflow), where only value probes are defined.
        """
        if self._num_keys == 0:
            return np.zeros(len(code_columns[0]), dtype=bool)
        if self._code_set is None:
            return None
        assert self._dictionaries is not None
        if len(self._dictionaries) == 1:
            return self._probe_members(dictionaries[0])[code_columns[0]]
        translated = [
            probe_dictionary.translate_codes(build_dictionary, codes)
            for build_dictionary, probe_dictionary, codes in zip(
                self._dictionaries, dictionaries, code_columns
            )
        ]
        combined = combine_codes(
            translated, [d.num_values for d in self._dictionaries]
        )
        assert combined is not None  # radices fit at construction time
        return self.contains_codes(combined)

    def _probe_members(self, probe_dictionary: ColumnDictionary) -> np.ndarray:
        """Single-column keys: the bool ``probe code -> member`` table of
        one probe dictionary.  A code-built filter probed through its
        own build dictionary answers from the presence table itself;
        any other dictionary is translated (once per pair of
        dictionaries, see ``translate_to``) and its table memoized."""
        presence = self._presence
        if presence is not None and probe_dictionary is presence[0]:
            return presence[1]
        member = self._member_memo.get(probe_dictionary)
        if member is None:
            if presence is None:
                member = self.contains([probe_dictionary.values])
            else:
                build_dictionary, present = presence
                translate = probe_dictionary.translate_to(build_dictionary)
                member = (
                    present[:-1] if translate is None else present[translate]
                )
            self._member_memo[probe_dictionary] = member
        return member

    def contains_codes(self, combined: np.ndarray) -> np.ndarray:
        """Membership of precomputed combined codes (see :meth:`encode`).

        Domains that passed ``_packed_table_worthwhile`` at build time
        answer from the packed member bitvector (through its decoded
        bool view while the domain is cache-resident, a word probe
        above that); only sparse or oversized domains fall through to
        ``np.isin`` over the sorted code set.  Codes of ``-1`` (tuples
        absent from some key domain) never appear in the code set, so
        they come out as non-members on every branch.
        """
        assert self._code_set is not None
        if len(self._code_set) == 0:
            return np.zeros(len(combined), dtype=bool)
        if self._member_table is not None:
            valid = combined >= 0
            positions = np.where(valid, combined, 0)
            if self._member_table.num_bits <= _PROBE_VIEW_CAP:
                view = self._probe_view
                if view is None:
                    view = self._probe_view = self._member_table.to_mask()
                return view[positions] & valid
            return self._member_table.get(positions) & valid
        return np.isin(combined, self._code_set)

    @property
    def size_bits(self) -> int:
        # The probe index proper: the sorted code set, <= one 64-bit
        # entry per build key.  Auxiliary structures (per-column sorted
        # domains + codes, and the optional <=1 MiB membership bitmap)
        # are excluded, matching the seed's accounting.
        return self._num_keys * 64

    @property
    def num_keys(self) -> int:
        return self._num_keys

    @property
    def resident_bytes(self) -> int:
        """Actual resident footprint, whatever mode the filter is in.

        Indexed mode counts the sorted code set, the per-column
        dictionaries, and the packed membership bitvector (words plus
        any lazily built rank directory).  The fallback modes count the
        retained raw key columns — previously these reported nothing,
        so a cache full of float-keyed filters looked free.
        """
        total = 0
        if self._code_set is not None:
            total += self._code_set.nbytes
        if self._dictionaries is not None:
            for dictionary in self._dictionaries:
                total += dictionary.values.nbytes + dictionary.codes.nbytes
        if self._member_table is not None:
            total += self._member_table.resident_bytes
        if self._probe_view is not None:
            total += self._probe_view.nbytes
        if self._presence is not None:
            # The presence table only; the table dictionary it indexes
            # belongs to the database.
            total += self._presence[1].nbytes
        memo = self._member_memo
        # keyrefs() snapshots atomically; iterating the live mapping
        # could race a morsel worker memoizing a new table.
        for keyref in memo.keyrefs():
            dictionary = keyref()
            table = None if dictionary is None else memo.get(dictionary)
            if table is not None:
                total += table.nbytes
        if self._key_columns is not None:
            for column in self._key_columns:
                total += column.nbytes
        return total

    def describe(self) -> dict:
        """Geometry of the resident representation (all modes)."""
        info: dict = {
            "mode": self._mode,
            "num_keys": self._num_keys,
            "resident_bytes": self.resident_bytes,
        }
        if self._code_set is not None:
            info["code_set"] = len(self._code_set)
            if self._member_table is not None:
                info["member_table_bits"] = self._member_table.num_bits
                info["member_table_bytes"] = self._member_table.resident_bytes
                if self._probe_view is not None:
                    info["probe_view_bytes"] = self._probe_view.nbytes
        if self._key_columns is not None:
            info["raw_columns"] = len(self._key_columns)
        return info

    def key_bounds(self) -> list[tuple | None] | None:
        """Bounds straight off the sorted per-column dictionaries.

        Free in indexed mode — ``values`` is sorted, so the bounds are
        its first and last entries.  The float fallback keeps no
        dictionaries and reports ``None`` (NaN keys forbid interval
        reasoning anyway; see the base-class contract).
        """
        if self._dictionaries is None:
            return None
        bounds: list[tuple | None] = []
        for dictionary in self._dictionaries:
            if dictionary.num_values == 0:
                bounds.append(None)
            else:
                bounds.append(
                    (dictionary.values[0], dictionary.values[-1])
                )
        return bounds

    @property
    def may_have_false_positives(self) -> bool:
        return False

    def false_positive_rate(self) -> float:
        return 0.0

    @property
    def has_distinct_keys(self) -> bool:
        return (
            self._code_set is not None
            and len(self._code_set) == self._num_keys
        )

    def __repr__(self) -> str:
        return f"ExactFilter(keys={self._num_keys})"

