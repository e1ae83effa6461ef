"""The hash join's match kernel: pure functions over int64 key codes.

Both join paths of the executor — stored dictionary codes and the joint
factorization of raw values — reduce a join to two code arrays over one
domain (equal codes <=> equal key tuples; ``-1`` on the probe side marks
a value the build side cannot contain) and call in here, so both orient
and order their output identically.  Three contracts, spelled out in
``docs/ARCHITECTURE.md`` ("Join kernel"):

* **side choice** (:func:`join_matcher`) — the plan's build side is
  *indexed* and the probe side *streams* through it, unless the build
  side has more rows *and* repeats a key: then the probe side is
  indexed.  Both tests are exact properties of the key values, never of
  the encoding or any executor setting;
* **pair order** — streamed rows ascending, per streamed row its matches
  in indexed-side row order, so consecutive slices of the streamed side
  concatenate to one whole call;
* **identity** — "every row of this side, once, in order" is ``None``,
  not ``np.arange`` (:func:`identity_to_none`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# When a join's combined code domain is served by direct addressing (a
# ``code -> row`` table or counting-sort offsets, one int64 slot per
# code).  Allocating and filling the table costs per *slot* what sorting
# and binary-searching costs per *row* about 16 times over (measured:
# ~7 ns a slot against ~110 ns an indexed-or-streamed row), so the table
# is used while the domain stays within that many slots per row the join
# touches — a 200-row dimension probed by 450 k fact rows qualifies, two
# small inputs over a wide key domain sort instead — and never past the
# cap (8 MiB a table).
DENSE_SLOTS_PER_ROW = 16
DENSE_DOMAIN_CAP = 1 << 20


class CodeMatcher:
    """Immutable code-space match structure over one join input.

    Built once from the indexed side's combined key codes (all in
    ``[0, domain)``), then probed by every morsel worker lock-free —
    the single-build-then-shared contract the parallel hash join relies
    on.  Three shapes, chosen from what the codes themselves show:

    * **distinct codes** (the PK side of a PK-FK join; one ``bincount``
      proves it): a ``code -> row`` table of ``domain + 1`` slots whose
      last slot holds ``-1``, so an absent streamed code (``-1``)
      indexes the sentinel directly.  A match is one gather and a
      ``>= 0`` mask — no sort, no search, no expansion.
    * **repeated codes, dense domain**: counting-sort offsets (per-code
      count and start, same sentinel slot) over a stable radix-sorted
      row order; streamed rows gather their match ranges.
    * **domain too wide for the rows involved** (more than
      ``DENSE_SLOTS_PER_ROW`` slots per indexed-plus-streamed row, or
      past ``DENSE_DOMAIN_CAP``): stable sort plus two binary searches
      per streamed row.

    ``unique`` says whether the codes were distinct.  ``rows`` names
    the indexed side's row of each code when ``codes`` is a subset of
    that side (absent codes dropped); matches then report those rows.
    With ``unique_only`` a structure over repeated codes is left
    unbuilt — the caller only wanted to know, and indexes the other
    side instead (see :func:`join_matcher`).
    """

    __slots__ = ("unique", "_rows", "_order", "_counts", "_starts", "_sorted")

    def __init__(
        self,
        codes: np.ndarray,
        domain: int,
        streamed_rows: int,
        rows: np.ndarray | None = None,
        unique_only: bool = False,
    ) -> None:
        self._rows = self._order = self._counts = None
        self._starts = self._sorted = None
        touched = len(codes) + streamed_rows
        if domain > min(DENSE_DOMAIN_CAP, DENSE_SLOTS_PER_ROW * touched):
            order = stable_code_order(codes, domain)
            ordered = codes[order]
            self.unique = not (ordered[1:] == ordered[:-1]).any()
            if self.unique or not unique_only:
                self._order = order if rows is None else rows[order]
                self._sorted = ordered
            return
        # One extra slot no indexed code reaches: the count-0 sentinel.
        counts = np.bincount(codes, minlength=domain + 1)
        self.unique = bool(counts.max() <= 1)
        if self.unique:
            table = np.full(domain + 1, -1, dtype=np.int64)
            table[codes] = (
                np.arange(len(codes), dtype=np.int64) if rows is None else rows
            )
            self._rows = table
        elif not unique_only:
            order = stable_code_order(codes, domain)
            self._order = order if rows is None else rows[order]
            self._counts = counts
            self._starts = np.cumsum(counts) - counts

    def match(
        self, streamed_codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """All ``(indexed_row, streamed_row)`` pairs for these codes.

        The streamed rows come back as ``None`` when every one of them
        matched exactly once (over distinct codes the indexed rows are
        then the gather itself — no compaction copy).
        """
        if self._rows is not None:
            indexed_idx = self._rows[streamed_codes]
            hit = indexed_idx >= 0
            if hit.all():
                return indexed_idx, None
            streamed_idx = np.flatnonzero(hit)
            return indexed_idx[streamed_idx], streamed_idx
        if self._sorted is None:
            counts = self._counts[streamed_codes]
            starts = self._starts[streamed_codes]
        else:
            starts = np.searchsorted(self._sorted, streamed_codes, side="left")
            counts = (
                np.searchsorted(self._sorted, streamed_codes, side="right")
                - starts
            )
        streamed_idx = np.repeat(
            np.arange(len(streamed_codes), dtype=np.int64), counts
        )
        # Output slot t belongs to streamed row s = streamed_idx[t] and
        # reads sorted indexed position starts[s] + (t - first slot of s).
        firsts = np.cumsum(counts) - counts
        positions = np.arange(len(streamed_idx), dtype=np.int64) + np.repeat(
            starts - firsts, counts
        )
        return self._order[positions], identity_to_none(
            streamed_idx, len(streamed_codes)
        )


def stable_code_order(codes: np.ndarray, domain: int) -> np.ndarray:
    """``np.argsort(codes, kind="stable")`` for codes in ``[0, domain)``.

    NumPy's stable sort is an O(n) radix sort only for keys of 16 bits
    or fewer (timsort above), so the key is narrowed: one ``uint16``
    pass when the domain fits, two (low half, then high half of the
    already-ordered rows — LSD radix) up to 2**32.
    """
    if domain <= 1 << 16:
        return np.argsort(codes.astype(np.uint16), kind="stable")
    if domain <= 1 << 32:
        order = np.argsort((codes & 0xFFFF).astype(np.uint16), kind="stable")
        high = (codes >> 16).astype(np.uint16)[order]
        return order[np.argsort(high, kind="stable")]
    return np.argsort(codes, kind="stable")


def identity_to_none(
    idx: np.ndarray | None, rows: int
) -> np.ndarray | None:
    """``None`` exactly when ``idx`` is ``arange(rows)`` — every row of
    a ``rows``-row side, once, in order.  The length test settles almost
    every join; only a candidate identity pays the O(rows) comparison.
    """
    if idx is None or len(idx) != rows:
        return idx
    if rows and (
        idx[0] != 0 or idx[-1] != rows - 1 or not (idx[1:] > idx[:-1]).all()
    ):
        return idx
    return None


def join_matcher(
    build_codes: np.ndarray,
    domain: int,
    probe_rows: int,
    probe_codes: Callable[[], np.ndarray],
) -> tuple[CodeMatcher, bool]:
    """The match structure of one join and whether it indexes the probe
    side (the side-choice rule).

    More build rows than codes prove a repeated key by pigeonhole;
    otherwise the shape test the matcher runs anyway does.  Only a
    reversed join calls ``probe_codes()`` — the whole probe side's codes
    — and indexes them, absent (``-1``) codes left out.
    """
    build_rows = len(build_codes)
    larger = build_rows > probe_rows
    if not (larger and build_rows > domain):
        matcher = CodeMatcher(
            build_codes, domain, probe_rows, unique_only=larger
        )
        if matcher.unique or not larger:
            return matcher, False
    codes = probe_codes()
    rows = None
    if len(codes) and codes.min() < 0:
        rows = np.flatnonzero(codes >= 0)
        codes = codes[rows]
    return CodeMatcher(codes, domain, build_rows, rows=rows), True


def join_codes(
    build_codes: np.ndarray, probe_codes: np.ndarray, domain: int
) -> tuple[np.ndarray | None, np.ndarray | None, bool]:
    """One whole join: ``(build_idx, probe_idx, indexes_probe)``, either
    index ``None`` when its side is the identity."""
    matcher, indexes_probe = join_matcher(
        build_codes, domain, len(probe_codes), lambda: probe_codes
    )
    if indexes_probe:
        probe_idx, build_idx = matcher.match(build_codes)
        return build_idx, identity_to_none(probe_idx, len(probe_codes)), True
    build_idx, probe_idx = matcher.match(probe_codes)
    return identity_to_none(build_idx, len(build_codes)), probe_idx, False
