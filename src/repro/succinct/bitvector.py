"""Uint64-word-packed bitvector with vectorized rank and select.

Layout (Kurpicz et al.'s "flat" design, adapted to numpy batch ops):

::

    words       uint64[ceil(n/64)]   the bits, little-endian bit order
                                     (bit i lives in words[i >> 6] at
                                     position i & 63 — the same order
                                     np.packbits(bitorder="little")
                                     produces and the Bloom filter uses)
    directory   per 512-bit block (8 words):
                  _block_rel  uint16   ones before the block, relative
                                       to its superblock start
                per 65536-bit superblock (128 blocks):
                  _super_cum  int64    ones before the superblock

    overhead    16/512 + 64/65536  ~= 3.2% of the words

Every operation is a batch operation over a positions/ranks array:

``rank1(p)``
    ones strictly before position ``p``: superblock count + block count
    + a popcount of the (at most 8) masked block words, all gathered as
    one ``(n, 8)`` matrix — no per-query loops.
``select1(k)``
    position of the ``k``-th one (0-based).  Binary search over the
    superblock counts, a vectorized scan of the 128 sampled block
    counts inside the superblock, then popcount cascades word -> byte
    -> a 256x8 bit-position lookup table.
``get(p)``
    word gather + shift + mask membership probe.

Popcounts use ``np.bitwise_count`` (hardware popcnt under the hood);
a byte-LUT fallback keeps older numpy working.

The bit tail past ``num_bits`` in the last word is always zero — every
constructor enforces it, so word-level AND/OR/popcount never see stray
bits.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
BLOCK_WORDS = 8  # 512-bit rank blocks
BLOCK_BITS = BLOCK_WORDS * WORD_BITS
SUPER_BLOCKS = 128  # blocks per superblock -> 65536 bits
SUPER_BITS = SUPER_BLOCKS * BLOCK_BITS

_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)

if hasattr(np, "bitwise_count"):

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array (int64 result)."""
        return np.bitwise_count(words).astype(np.int64)

else:  # pragma: no cover - numpy >= 2.0 always has bitwise_count
    _BYTE_POPCOUNT = np.array(
        [bin(v).count("1") for v in range(256)], dtype=np.uint8
    )

    def popcount(words: np.ndarray) -> np.ndarray:
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        counts = _BYTE_POPCOUNT[as_bytes].astype(np.int64)
        return counts.reshape(*words.shape, 8).sum(axis=-1)


def _build_select_in_byte() -> np.ndarray:
    """``table[v, k]`` = index of the ``k``-th (0-based) set bit of byte
    ``v`` — the last rung of the select cascade."""
    bits = np.unpackbits(
        np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
    )
    table = np.zeros((256, 8), dtype=np.uint8)
    for value in range(256):
        positions = np.flatnonzero(bits[value])
        table[value, : len(positions)] = positions
    return table


_SELECT_IN_BYTE = _build_select_in_byte()
_BYTE_SHIFTS = (np.arange(8, dtype=np.uint64) * np.uint64(8))[None, :]


class Bitvector:
    """An immutable-length packed bitvector supporting batch
    rank/select/membership and word-level combination.

    Construction never builds the rank directory — a bitvector used
    purely as a selection mask or a membership table costs exactly its
    words.  The directory materializes on the first ``rank1``/``select1``
    and is then cached; ``resident_bytes`` reports whatever is actually
    allocated.
    """

    __slots__ = (
        "words",
        "num_bits",
        "_count",
        "_super_cum",
        "_block_rel",
        "_padded",
    )

    def __init__(self, words: np.ndarray, num_bits: int) -> None:
        num_words = (num_bits + WORD_BITS - 1) // WORD_BITS
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if len(words) != num_words:
            raise ValueError(
                f"expected {num_words} words for {num_bits} bits, "
                f"got {len(words)}"
            )
        tail = num_bits & (WORD_BITS - 1)
        if num_words and tail:
            words[-1] &= (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
        self.words = words
        self.num_bits = int(num_bits)
        self._count: int | None = None
        self._super_cum: np.ndarray | None = None
        self._block_rel: np.ndarray | None = None
        self._padded: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(cls, num_bits: int) -> "Bitvector":
        num_words = (num_bits + WORD_BITS - 1) // WORD_BITS
        return cls(np.zeros(num_words, dtype=np.uint64), num_bits)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Bitvector":
        """Pack a bool array, one bit per element (word-level, no
        position materialization)."""
        mask = np.asarray(mask)
        num_bits = len(mask)
        num_words = (num_bits + WORD_BITS - 1) // WORD_BITS
        packed = np.packbits(mask, bitorder="little")
        buffer = np.zeros(num_words * 8, dtype=np.uint8)
        buffer[: len(packed)] = packed
        return cls(buffer.view(np.uint64), num_bits)

    @classmethod
    def from_positions(cls, positions: np.ndarray, num_bits: int) -> "Bitvector":
        """Bitvector over ``[0, num_bits)`` with the given bits set."""
        mask = np.zeros(num_bits, dtype=bool)
        mask[positions] = True
        return cls.from_mask(mask)

    # ------------------------------------------------------------------
    # Rank directory
    # ------------------------------------------------------------------

    def _directory(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(super_cum, block_rel, block-padded words), built lazily."""
        if self._super_cum is None:
            num_words = len(self.words)
            num_blocks = max(
                (num_words + BLOCK_WORDS - 1) // BLOCK_WORDS, 1
            )
            if num_words == num_blocks * BLOCK_WORDS:
                padded = self.words  # already block-aligned: no copy
            else:
                padded = np.zeros(num_blocks * BLOCK_WORDS, dtype=np.uint64)
                padded[:num_words] = self.words
            per_block = (
                popcount(padded).reshape(num_blocks, BLOCK_WORDS).sum(axis=1)
            )
            block_cum = np.zeros(num_blocks, dtype=np.int64)
            np.cumsum(per_block[:-1], out=block_cum[1:])
            super_cum = block_cum[::SUPER_BLOCKS].copy()
            block_rel = (
                block_cum - np.repeat(super_cum, SUPER_BLOCKS)[:num_blocks]
            ).astype(np.uint16)
            self._padded = padded
            self._super_cum = super_cum
            self._block_rel = block_rel
            self._count = int(block_cum[-1] + per_block[-1])
        return self._super_cum, self._block_rel, self._padded

    def count(self) -> int:
        """Total number of set bits."""
        if self._count is None:
            self._count = int(popcount(self.words).sum())
        return self._count

    def rank1(self, positions: np.ndarray) -> np.ndarray:
        """Set bits strictly before each position (positions may be
        ``num_bits`` to rank past the end)."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return positions.copy()
        if self.num_bits == 0:
            return np.zeros(len(positions), dtype=np.int64)
        super_cum, block_rel, padded = self._directory()
        num_blocks = len(block_rel)
        block = np.minimum(positions >> 9, num_blocks - 1)
        base = super_cum[block >> 7] + block_rel[block]
        block_words = padded[
            (block * BLOCK_WORDS)[:, None] + np.arange(BLOCK_WORDS)
        ]
        bits_before = np.clip(
            positions[:, None] - block[:, None] * BLOCK_BITS
            - np.arange(BLOCK_WORDS) * WORD_BITS,
            0,
            WORD_BITS,
        ).astype(np.uint64)
        mask = (np.uint64(1) << (bits_before & np.uint64(63))) - np.uint64(1)
        mask[bits_before == WORD_BITS] = _FULL_WORD
        return base + popcount(block_words & mask).sum(axis=1)

    def select1(self, ranks: np.ndarray) -> np.ndarray:
        """Position of the ``k``-th (0-based) set bit for each ``k``.

        Callers must pass ``0 <= k < count()``.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            return ranks.copy()
        super_cum, block_rel, padded = self._directory()
        num_blocks = len(block_rel)
        # Superblock: binary search of the cumulative ones.
        super_idx = np.searchsorted(super_cum, ranks, side="right") - 1
        rank_in_super = ranks - super_cum[super_idx]
        # Block: vectorized scan of the <=128 sampled counts inside the
        # superblock (out-of-range slots become an impossible sentinel).
        window_idx = super_idx[:, None] * SUPER_BLOCKS + np.arange(SUPER_BLOCKS)
        valid = window_idx < num_blocks
        windows = np.where(
            valid,
            block_rel[np.minimum(window_idx, num_blocks - 1)].astype(np.int64),
            np.int64(1) << 40,
        )
        in_super = (windows <= rank_in_super[:, None]).sum(axis=1) - 1
        block = super_idx * SUPER_BLOCKS + in_super
        rank_in_block = rank_in_super - block_rel[block]
        # Word: popcount cascade over the block's 8 words.
        block_words = padded[
            (block * BLOCK_WORDS)[:, None] + np.arange(BLOCK_WORDS)
        ]
        word_counts = popcount(block_words)
        word_excl = np.cumsum(word_counts, axis=1) - word_counts
        in_block = (word_excl <= rank_in_block[:, None]).sum(axis=1) - 1
        take = np.arange(len(ranks))
        rank_in_word = rank_in_block - word_excl[take, in_block]
        target = block_words[take, in_block]
        # Byte: same cascade one level down, then the 256x8 LUT.
        byte_values = ((target[:, None] >> _BYTE_SHIFTS) & np.uint64(0xFF)).astype(
            np.int64
        )
        byte_counts = popcount(byte_values.astype(np.uint64))
        byte_excl = np.cumsum(byte_counts, axis=1) - byte_counts
        in_word = (byte_excl <= rank_in_word[:, None]).sum(axis=1) - 1
        rank_in_byte = rank_in_word - byte_excl[take, in_word]
        bit = _SELECT_IN_BYTE[byte_values[take, in_word], rank_in_byte]
        return (
            block * BLOCK_BITS + in_block * WORD_BITS + in_word * 8 + bit
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # Membership / decode
    # ------------------------------------------------------------------

    def get(self, positions: np.ndarray) -> np.ndarray:
        """Bool membership for each position (byte gather + shift).

        Probes through a uint8 view of the words rather than the words
        themselves: the byte gather touches the same cache lines but
        uint8 shifts run ~30% faster than numpy's variable uint64
        shifts, putting the packed probe at parity with dense bool
        fancy-indexing once the table spills cache.  The uint8 view is
        exactly ``packbits(bitorder="little")`` order — bit ``i`` lives
        in byte ``i >> 3`` at position ``i & 7``.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            return np.zeros(0, dtype=bool)
        byte_view = self.words.view(np.uint8)
        selected = byte_view[positions >> 3]
        shifts = (positions & 7).astype(np.uint8)
        return ((selected >> shifts) & np.uint8(1)) != 0

    def positions(self) -> np.ndarray:
        """All set-bit positions, ascending (int64).

        Bulk decode through ``np.unpackbits`` — for dense vectors this
        beats ``select1(arange(count))`` by avoiding the search cascade.
        """
        return np.flatnonzero(self.to_mask())

    def to_mask(self) -> np.ndarray:
        """The bits as a bool array.

        A bool *view* of the unpacked 0/1 bytes, not a copy — and what
        ``flatnonzero`` must be handed: over uint8 it takes NumPy's
        generic path, about five times slower than its bool scan.
        """
        num_bytes = (self.num_bits + 7) // 8
        return np.unpackbits(
            self.words.view(np.uint8)[:num_bytes],
            count=self.num_bits,
            bitorder="little",
        ).view(bool)

    # ------------------------------------------------------------------
    # Word-level combination
    # ------------------------------------------------------------------

    def _check_length(self, other: "Bitvector") -> None:
        if self.num_bits != other.num_bits:
            raise ValueError(
                f"length mismatch: {self.num_bits} vs {other.num_bits}"
            )

    def __and__(self, other: "Bitvector") -> "Bitvector":
        self._check_length(other)
        return Bitvector(self.words & other.words, self.num_bits)

    def __or__(self, other: "Bitvector") -> "Bitvector":
        self._check_length(other)
        return Bitvector(self.words | other.words, self.num_bits)

    def invert(self) -> "Bitvector":
        return Bitvector(~self.words, self.num_bits)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes of the packed words alone."""
        return int(self.words.nbytes)

    @property
    def directory_nbytes(self) -> int:
        """Bytes of whatever directory structures are materialized."""
        total = 0
        for attribute in (self._super_cum, self._block_rel):
            if attribute is not None:
                total += attribute.nbytes
        if self._padded is not None and self._padded is not self.words:
            total += self._padded.nbytes  # block-alignment copy
        return int(total)

    @property
    def resident_bytes(self) -> int:
        """Words plus any lazily built directory — the honest footprint."""
        return self.nbytes + self.directory_nbytes

    def __len__(self) -> int:
        return self.num_bits

    def __repr__(self) -> str:
        return f"Bitvector(bits={self.num_bits}, ones={self.count()})"
