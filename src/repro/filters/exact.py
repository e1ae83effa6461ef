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

Float key columns take the legacy joint-factorization path instead:
``np.unique`` treats NaN as equal to NaN while ordered dictionary
lookups cannot, and the engine's join fallback factorizes jointly — the
filter must agree with it on NaN keys.  Decision-support join keys are
integers and strings, so this costs nothing in practice.
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
    split_codes,
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

    supports_partitioned_build = True

    # Per-instance state; the defaults are what an indexed-mode filter
    # assembled field by field (``merge``, ``from_dictionary_codes``)
    # starts from.
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

    # ------------------------------------------------------------------
    # Partitioned build (see BitvectorFilter's partitioned-build docs)
    # ------------------------------------------------------------------

    @classmethod
    def build_partial(
        cls, key_columns: list[np.ndarray], geometry: dict, **options
    ) -> "ExactFilter":
        """One partition's partial is just an exact filter over its rows:
        the expensive ``np.unique`` sorts run on the partition slice,
        which is exactly the work the parallel build fans out."""
        return cls(key_columns)

    @classmethod
    def merge(
        cls, partials: list["ExactFilter"], num_keys: int, **options
    ) -> "ExactFilter":
        """Merge per-partition sorted-unique key sets into one filter.

        The point of partitioning the build is that the expensive
        factorization sorts ran per-partition *in parallel*; the merge
        therefore never re-sorts rows.  Per key column, the partials'
        sorted dictionary domains fold into one sorted union with a
        stable sort over already-sorted runs (radix sort for integers,
        run-detecting timsort for strings) that simultaneously yields
        each partial's old-code → merged-code translation; the
        partials' code sets are then translated into the merged domain
        and unioned.  Single-column keys skip even that: every
        dictionary value occurs in some key, so the merged code set is
        ``arange(num_values)`` — exactly what the serial build's
        ``np.unique`` over per-row codes collapses to, for free.

        The result is indistinguishable from a serial build over the
        concatenated partitions: identical sorted domains, code set,
        membership table, ``key_bounds``, and — via the ``num_keys``
        override, so deduplication cannot hide the true inserted-row
        count — ``size_bits``.  Partials in a fallback mode (float keys
        for NaN parity, mixed-radix overflow) concatenate their raw key
        columns, which in partition order *are* the serial build's
        input, and rebuild.
        """
        if not partials:
            raise ValueError("merge requires at least one partial")
        if any(partial._code_set is None for partial in partials):
            return cls._merge_rebuild(partials, num_keys)
        num_columns = len(partials[0]._dictionaries)
        merged_domains: list[np.ndarray] = []
        translations: list[list[np.ndarray]] = []
        for index in range(num_columns):
            merged_values, partial_codes = _merge_sorted_domains(
                [p._dictionaries[index].values for p in partials]
            )
            merged_domains.append(merged_values)
            translations.append(partial_codes)
        radices = [len(domain) for domain in merged_domains]
        domain = code_domain(radices)
        member_table: Bitvector | None = None
        if num_columns == 1:
            # Every dictionary value occurs in some key, so the merged
            # set is the full domain — and its membership bitvector is
            # all-ones words, no scatter at all.
            code_set = np.arange(radices[0], dtype=np.int64)
            if _packed_table_worthwhile(domain, len(code_set)):
                member_table = Bitvector.ones(domain)
        else:
            upper_count = sum(len(p._code_set) for p in partials)
            scatter = _packed_table_worthwhile(domain, upper_count)
            member_words: Bitvector | None = (
                Bitvector.zeros(domain) if scatter else None
            )
            translated: list[np.ndarray] = []
            for i, partial in enumerate(partials):
                decoded = partial._decode_code_set()
                combined = combine_codes(
                    [
                        translations[index][i][decoded[index]]
                        for index in range(num_columns)
                    ],
                    radices,
                )
                if combined is None:
                    # The union's radix product overflows even though
                    # each partial's fit: rebuild — the serial
                    # constructor reaches the same fallback mode.
                    return cls._merge_rebuild(partials, num_keys)
                if member_words is not None:
                    # Per-partition packed bitmap, OR-merged word by
                    # word like Bloom partials — no sorted union pass.
                    member_words.ior_words(
                        Bitvector.from_positions(combined, domain)
                    )
                else:
                    translated.append(combined)
            if member_words is not None:
                # The sorted unique union falls out of the bitmap for
                # free: select over the merged words.
                code_set = member_words.positions()
                if _packed_table_worthwhile(domain, len(code_set)):
                    member_table = member_words
            else:
                code_set = np.unique(np.concatenate(translated))
        merged = cls.__new__(cls)
        merged._num_keys = int(num_keys)
        # Dictionary codes decode the code set: values[codes] per column
        # yields the distinct key tuples — the faithful build-column
        # set the legacy probe path reconstructs (it only needs the key
        # *set*), never larger than one entry per distinct tuple.
        merged._dictionaries = [
            ColumnDictionary(domain, codes)
            for domain, codes in zip(
                merged_domains, split_codes(code_set, radices)
            )
        ]
        merged._code_set = code_set
        merged._member_table = member_table
        merged._member_memo = weakref.WeakKeyDictionary()
        return merged

    @classmethod
    def _merge_rebuild(
        cls, partials: list["ExactFilter"], num_keys: int
    ) -> "ExactFilter":
        """Fallback merge: concatenate raw build columns and rebuild.

        Partition order equals row order, so the concatenation is the
        serial build's input byte for byte — correctness over speed for
        the rare fallback modes.
        """
        parts = [partial._build_columns() for partial in partials]
        merged = cls(
            [
                np.concatenate([part[index] for part in parts])
                for index in range(len(parts[0]))
            ]
        )
        merged._num_keys = int(num_keys)
        return merged

    def _decode_code_set(self) -> list[np.ndarray]:
        """The code set split into per-column dictionary codes
        (mixed-radix decode, last column fastest-varying).  Indexed
        mode only."""
        assert self._code_set is not None and self._dictionaries is not None
        return split_codes(
            self._code_set, [d.num_values for d in self._dictionaries]
        )

    def _build_columns(self) -> list[np.ndarray]:
        """The original build key columns, whichever mode we are in."""
        if self._key_columns is not None:
            return self._key_columns
        assert self._dictionaries is not None
        return [d.values[d.codes] for d in self._dictionaries]

    def contains(self, key_columns: list[np.ndarray]) -> np.ndarray:
        validate_key_columns(key_columns)
        if self._num_keys == 0:
            return np.zeros(len(key_columns[0]), dtype=bool)
        if self._code_set is None:
            build_codes, probe_codes = joint_codes(
                self._build_columns(), key_columns
            )
            return np.isin(probe_codes, build_codes)
        return self.contains_codes(self.encode(key_columns))

    def contains_legacy(self, key_columns: list[np.ndarray]) -> np.ndarray:
        """Seed-engine probe: joint factorization on every call.

        Re-runs ``np.unique`` over build+probe values per probe — the
        O((n+m) log(n+m)) behaviour the indexed path replaces.  Kept as
        the measured baseline for ``benchmarks/test_exec_hot_path.py``
        (the executor's ``eager_materialization`` mode probes through
        it).
        """
        validate_key_columns(key_columns)
        if self._num_keys == 0:
            return np.zeros(len(key_columns[0]), dtype=bool)
        build_codes, probe_codes = joint_codes(
            self._build_columns(), key_columns
        )
        return np.isin(probe_codes, build_codes)

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
        its first and last entries.  The legacy float path keeps no
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


def _merge_sorted_domains(
    parts: list[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sorted union of sorted distinct-value arrays, plus translations.

    Returns ``(merged_values, codes_per_part)`` where
    ``codes_per_part[i][j]`` is the merged-domain code of ``parts[i][j]``
    — i.e. ``merged_values[codes_per_part[i]] == parts[i]``.  One stable
    argsort over the concatenation (already p sorted runs: radix sort
    for integers is O(n), timsort detects the runs for strings) plus
    O(n) group labelling; no per-element binary searches.
    """
    lengths = [len(part) for part in parts]
    concat = np.concatenate(parts) if parts else np.array([], dtype=np.int64)
    if len(concat) == 0:
        empty = np.array([], dtype=np.int64)
        return concat, [empty[:0].copy() for _ in parts]
    order = np.argsort(concat, kind="stable")
    ranked = concat[order]
    is_new = np.empty(len(ranked), dtype=bool)
    is_new[0] = True
    is_new[1:] = ranked[1:] != ranked[:-1]
    merged_values = ranked[is_new]
    codes = np.empty(len(concat), dtype=np.int64)
    codes[order] = np.cumsum(is_new) - 1
    split_points = np.cumsum(lengths)[:-1]
    return merged_values, [
        part.astype(np.int64, copy=False) for part in np.split(codes, split_points)
    ]
