"""Exact bitvector filter: true semi-join semantics, no false positives.

This is the filter the paper's theory assumes ("if the bitvector filters
have no false positives", Property 4 and Lemmas 1/3).  It holds the
build keys over sorted dictionaries
(:class:`repro.util.keycodes.ColumnDictionary`), in one of two plain
representations:

* **one key column** — ``(dictionary, present)``: a bool presence table
  with one slot per dictionary code, plus a trailing ``False`` slot
  where a probe value absent from the dictionary (code ``-1``) lands.
  A probe is one encode and one gather;
* **several key columns** — the sorted unique combined codes of the
  build rows under the dictionaries' mixed radix
  (:func:`repro.util.keycodes.combine_codes`), probed with ``np.isin``.

The executor builds from the build rows' stored dictionary codes
(:meth:`ExactFilter.from_dictionary_codes`) whenever every key column
still carries table provenance.  The dictionaries are then the build
*table's*, and a single-column build is one scatter of the build rows'
codes: nothing is factorized, sorted or renumbered, so the build costs
what the paper's cost model charges for it, per build row.  The value
constructor (keys without provenance) takes the same shape over a
:meth:`~repro.util.keycodes.ColumnDictionary.build` of its own, in
which every value is present.

Probes of stored columns skip even the per-row encode:
:meth:`ExactFilter.contains_dictionary_codes` takes the probe rows as
codes in the probe columns' table-resident dictionaries, and a
single-column key answers with one gather through a memoized ``probe
code -> member`` table.

A probe of a *whole* stored column goes one step further:
:meth:`ExactFilter.member_bits` answers it as a packed bitmap over the
column's rows, ``np.packbits(member[dictionary.codes])``, memoized per
probe dictionary like the member tables.  A warm filter thereby remembers
which fact rows it passes — the bitmap index of the filter over that
column — and the executor answers a stack of such filters on a full
fact scan with one AND of bitmaps and one compaction instead of one
probe and one selection per filter.  A bitmap costs
``ceil(rows / 8)`` bytes, counted in :attr:`ExactFilter.resident_bytes`.

Float key columns keep their raw build values and probe by joint
factorization instead: ``np.unique`` treats NaN as equal to NaN while
ordered dictionary lookups cannot, and the engine's join fallback
factorizes jointly — the filter must agree with it on NaN keys.  So do
value-built keys whose mixed-radix code product overflows int64.
Decision-support join keys are integers and strings, so this costs
nothing in practice.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.filters.base import BitvectorFilter, validate_key_columns
from repro.util.keycodes import (
    ColumnDictionary,
    combine_codes,
    joint_codes,
    unique_values,
)


class ExactFilter(BitvectorFilter):
    """Collision-free membership filter over key tuples."""

    supports_member_bits = True

    # Per-instance state.  An indexed filter holds its dictionaries and
    # one of ``_present`` / ``_code_set``; a fallback mode holds the raw
    # ``_key_columns`` instead.
    _mode = "indexed"
    _key_columns: list[np.ndarray] | None = None  # fallback modes only
    _dictionaries: list[ColumnDictionary] | None = None
    # One key column: presence per dictionary code + the absent slot.
    _present: np.ndarray | None = None
    # Several key columns: sorted unique combined build codes.
    _code_set: np.ndarray | None = None
    _distinct = False
    # Bytes of the dictionaries a value build factorized for itself; a
    # code build's dictionaries belong to the database.
    _private_bytes = 0

    def __init__(self, key_columns: list[np.ndarray]) -> None:
        key_columns = [np.asarray(c) for c in key_columns]
        self._num_keys = validate_key_columns(key_columns)
        self._member_memo = weakref.WeakKeyDictionary()
        self._bits_memo = weakref.WeakKeyDictionary()
        if any(column.dtype.kind in "fc" for column in key_columns):
            # Float keys: stay on joint factorization for NaN parity
            # with the engine's fallback join path (see module doc).
            self._mode = "float-fallback"
        else:
            dictionaries = [ColumnDictionary.build(c) for c in key_columns]
            if self._hold(dictionaries, [d.codes for d in dictionaries]):
                self._private_bytes = sum(
                    d.values.nbytes + d.codes.nbytes for d in dictionaries
                )
                return
            # Mixed-radix overflow (astronomically wide keys): keep the
            # raw columns and fall back to joint factorization probes.
            self._mode = "overflow-fallback"
        self._key_columns = key_columns

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
        dictionary_codes`).  Answers every probe as
        ``ExactFilter(values)`` over the same rows does, with nothing
        factorized: one scatter into a presence table the size of the
        table dictionary for a single column, the sorted distinct
        combined codes (:func:`~repro.util.keycodes.unique_values`) for
        several.

        ``None`` when the table dictionaries' radix product overflows —
        the executor's join leaves code space then too — and the caller
        builds from values.
        """
        built = cls.__new__(cls)
        built._num_keys = len(code_columns[0])
        built._member_memo = weakref.WeakKeyDictionary()
        built._bits_memo = weakref.WeakKeyDictionary()
        return built if built._hold(dictionaries, code_columns) else None

    def _hold(
        self,
        dictionaries: list[ColumnDictionary],
        code_columns: list[np.ndarray],
    ) -> bool:
        """Represent the build rows coded in ``dictionaries``, or return
        False (holding nothing) when their radix product overflows."""
        if len(dictionaries) == 1:
            # One slot past the domain stays False: where a probe value
            # absent from the dictionary (code -1) lands.
            present = np.zeros(dictionaries[0].num_values + 1, dtype=bool)
            present[code_columns[0]] = True
            self._present = present
            distinct = int(np.count_nonzero(present))
        else:
            combined = combine_codes(
                code_columns, [d.num_values for d in dictionaries]
            )
            if combined is None:
                return False
            self._code_set = unique_values(combined)
            distinct = len(self._code_set)
        self._dictionaries = dictionaries
        self._distinct = distinct == self._num_keys
        return True

    @classmethod
    def build(cls, key_columns: list[np.ndarray]) -> "ExactFilter":
        return cls(key_columns)

    def contains(self, key_columns: list[np.ndarray]) -> np.ndarray:
        validate_key_columns(key_columns)
        if self._num_keys == 0:
            return np.zeros(len(key_columns[0]), dtype=bool)
        if self._dictionaries is None:
            # Fallback modes keep the raw build columns.
            build_codes, probe_codes = joint_codes(
                self._key_columns, key_columns
            )
            return np.isin(probe_codes, build_codes)
        return self._members(
            [
                dictionary.encode(np.asarray(column))
                for dictionary, column in zip(self._dictionaries, key_columns)
            ]
        )

    def contains_dictionary_codes(
        self,
        dictionaries: list[ColumnDictionary],
        code_columns: list[np.ndarray],
    ) -> np.ndarray | None:
        """Membership of probe rows given as *probe-side* dictionary codes.

        ``code_columns[i]`` holds each probe row's code in
        ``dictionaries[i]`` — the table-resident dictionary of the
        probed column, not necessarily this filter's.  Equal to
        ``contains([d.values[c] for d, c in zip(...)])`` without ever
        materializing or searching the values.  A single-column key
        answers with one gather through a bool ``probe code -> member``
        table memoized per probe dictionary (:meth:`_probe_members`);
        several columns translate each column's codes into the filter's
        dictionary (``ColumnDictionary.translate_to``, memoized on the
        probe dictionary) and look the combined codes up.

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
        if self._dictionaries is None:
            return None
        if self._present is not None:
            return self._probe_members(dictionaries[0])[code_columns[0]]
        return self._members(
            [
                probe_dictionary.translate_codes(build_dictionary, codes)
                for build_dictionary, probe_dictionary, codes in zip(
                    self._dictionaries, dictionaries, code_columns
                )
            ]
        )

    def _members(self, coded: list[np.ndarray]) -> np.ndarray:
        """Membership of probe rows coded in this filter's dictionaries
        (``-1`` = a value absent from one; never a member)."""
        if self._present is not None:
            return self._present[coded[0]]
        combined = combine_codes(
            coded, [d.num_values for d in self._dictionaries]
        )
        assert combined is not None  # radices fit at construction time
        return np.isin(combined, self._code_set)

    def _probe_members(self, probe_dictionary: ColumnDictionary) -> np.ndarray:
        """Single-column keys: the bool ``probe code -> member`` table of
        one probe dictionary.  The filter's own dictionary answers from
        the presence table itself; any other is translated into it (once
        per pair of dictionaries, see ``translate_to``) and its table
        memoized."""
        build_dictionary = self._dictionaries[0]
        if probe_dictionary is build_dictionary:
            return self._present
        member = self._member_memo.get(probe_dictionary)
        if member is None:
            translate = probe_dictionary.translate_to(build_dictionary)
            present = self._present
            member = present[:-1] if translate is None else present[translate]
            self._member_memo[probe_dictionary] = member
        return member

    def member_bits(self, dictionary: ColumnDictionary) -> np.ndarray | None:
        """Packed membership of every stored row of one probe column:
        the read-only ``np.packbits(member[dictionary.codes])``, where
        ``member`` is the column's :meth:`_probe_members` table.

        Memoized per probe-dictionary object, exactly as the member
        tables are (see :meth:`contains_dictionary_codes`): a dictionary
        rebuilt after ``Database.invalidate_dictionaries`` starts a fresh
        entry, and a filter evicted from the cache takes its bitmaps
        with it.  A racing first call computes the same bitmap twice,
        which is benign.  ``None`` for several key columns and in the
        fallback modes — only a single-column presence table yields a
        per-row answer by one gather.
        """
        if self._present is None:
            return None
        bits = self._bits_memo.get(dictionary)
        if bits is None:
            bits = np.packbits(self._probe_members(dictionary)[dictionary.codes])
            bits.flags.writeable = False
            self._bits_memo[dictionary] = bits
        return bits

    def holds_member_bits(self, dictionary: ColumnDictionary) -> bool:
        return dictionary in self._bits_memo

    @property
    def size_bits(self) -> int:
        # The paper's payload: <= one 64-bit entry per build key.  What
        # is actually held is :attr:`resident_bytes`.
        return self._num_keys * 64

    @property
    def num_keys(self) -> int:
        return self._num_keys

    @property
    def resident_bytes(self) -> int:
        """Actual resident footprint, whatever mode the filter is in.

        Counts the presence table or code set, the dictionaries a value
        build factorized for itself (a code build's belong to the
        database), the memoized probe member tables and row bitmaps, and
        the raw key columns a fallback mode retains.
        """
        total = self._private_bytes
        for table in (self._present, self._code_set):
            if table is not None:
                total += table.nbytes
        for memo in (self._member_memo, self._bits_memo):
            # keyrefs() snapshots atomically; iterating the live mapping
            # could race a concurrent probe memoizing a new entry.
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
        if self._present is not None:
            info["presence_slots"] = len(self._present)
        if self._code_set is not None:
            info["code_set"] = len(self._code_set)
        if self._key_columns is not None:
            info["raw_columns"] = len(self._key_columns)
        return info

    @property
    def may_have_false_positives(self) -> bool:
        return False

    @property
    def has_distinct_keys(self) -> bool:
        return self._distinct

    def __repr__(self) -> str:
        return f"ExactFilter(keys={self._num_keys})"
