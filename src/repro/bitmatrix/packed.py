"""Bit-packed boolean matrices with fast Hamming arithmetic.

A :class:`BitMatrix` stores an ``n x m`` boolean matrix as an
``n x ceil(m / 64)`` array of ``uint64`` words.  All row-level operations
(popcount, Hamming distance, equality grouping) are computed on the packed
representation, which is what makes the exact-clustering baseline usable at
the scales evaluated in the paper.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
import numpy.typing as npt

from repro.types import BoolMatrix, as_bool_matrix

_WORD_BITS = 64

# 16-bit popcount lookup table: popcount of a uint64 is the sum of the
# popcounts of its four 16-bit halves.  A 64 KiB table keeps everything in
# L2 cache while avoiding Python-level loops.
_POPCOUNT16 = np.array(
    [bin(value).count("1") for value in range(1 << 16)], dtype=np.uint8
)

#: Whether numpy exposes the hardware popcount ufunc (numpy >= 2.0);
#: without it popcounts go through a 16-bit lookup table (~7x slower).
HAVE_HW_POPCOUNT = hasattr(np, "bitwise_count")


def _popcount_table(words: npt.NDArray[np.uint64]) -> npt.NDArray[np.int64]:
    """Table-lookup popcount (fallback for numpy without bitwise_count)."""
    # Viewing as uint16 requires a contiguous last axis; column slices of
    # a packed word array are strided, so normalise first.
    if not words.flags.c_contiguous:
        words = np.ascontiguousarray(words)
    # View each 8-byte word as four little-endian uint16 chunks.
    chunks = words.view(np.uint16).reshape(*words.shape, 4)
    return _POPCOUNT16[chunks].sum(axis=-1, dtype=np.int64)


def popcount(words: npt.NDArray[np.uint64]) -> npt.NDArray[np.int64]:
    """Return the per-element popcount of a ``uint64`` array.

    Works on any array shape (contiguous or strided); the result has the
    same shape with dtype ``int64``.  Uses the hardware popcount ufunc
    when numpy provides one, the 16-bit lookup table otherwise.
    """
    if words.dtype != np.uint64:
        raise TypeError(f"expected uint64 array, got {words.dtype}")
    if HAVE_HW_POPCOUNT:
        return np.bitwise_count(words).astype(np.int64)
    return _popcount_table(words)


class BitMatrix:
    """An immutable bit-packed boolean matrix.

    Parameters
    ----------
    matrix:
        Any 2-D array-like coercible to booleans.

    Notes
    -----
    The packed words and derived popcounts are computed eagerly; instances
    should be treated as read-only (the underlying arrays are flagged
    non-writeable).
    """

    def __init__(self, matrix: npt.ArrayLike) -> None:
        dense = as_bool_matrix(matrix)
        self._n_rows, self._n_cols = dense.shape
        self._words = _pack_rows(dense)
        self._words.setflags(write=False)
        self._row_popcounts = popcount(self._words).sum(axis=1)
        self._row_popcounts.setflags(write=False)

    @classmethod
    def from_words(
        cls, words: npt.NDArray[np.uint64], n_cols: int
    ) -> "BitMatrix":
        """Wrap an existing packed word array without re-packing.

        ``words`` must be ``n_rows x ceil(n_cols / 64)`` with any padding
        bits beyond ``n_cols`` cleared (as produced by :func:`pack_csr_rows`
        or ``_pack_rows``).  The array is not copied when already
        contiguous.
        """
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError(f"expected a 2-D word array, got ndim={words.ndim}")
        n_words = max(1, -(-int(n_cols) // _WORD_BITS))
        if words.shape[1] != n_words:
            raise ValueError(
                f"word array has {words.shape[1]} words per row; "
                f"{n_cols} columns require {n_words}"
            )
        self = cls.__new__(cls)
        self._n_rows = words.shape[0]
        self._n_cols = int(n_cols)
        self._words = words
        self._words.setflags(write=False)
        self._row_popcounts = popcount(words).sum(axis=1)
        self._row_popcounts.setflags(write=False)
        return self

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Logical (rows, columns) shape of the boolean matrix."""
        return (self._n_rows, self._n_cols)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_cols(self) -> int:
        return self._n_cols

    @property
    def words(self) -> npt.NDArray[np.uint64]:
        """The packed ``uint64`` word array (read-only view)."""
        return self._words

    @property
    def row_popcounts(self) -> npt.NDArray[np.int64]:
        """Number of set bits in each row (read-only view)."""
        return self._row_popcounts

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, index: int) -> BoolMatrix:
        """Unpack row ``index`` back into a boolean vector."""
        if not 0 <= index < self._n_rows:
            raise IndexError(f"row index {index} out of range [0, {self._n_rows})")
        bits = np.unpackbits(
            self._words[index].view(np.uint8), bitorder="little"
        )
        return bits[: self._n_cols].astype(bool)

    def to_dense(self) -> BoolMatrix:
        """Unpack the whole matrix into a dense boolean array."""
        bits = np.unpackbits(
            self._words.view(np.uint8), axis=1, bitorder="little"
        )
        return bits[:, : self._n_cols].astype(bool)

    # ------------------------------------------------------------------
    # Hamming arithmetic
    # ------------------------------------------------------------------
    def hamming(self, i: int, j: int) -> int:
        """Hamming distance between rows ``i`` and ``j``."""
        xor = np.bitwise_xor(self._words[i], self._words[j])
        return int(popcount(xor).sum())

    def hamming_to_row(self, index: int) -> npt.NDArray[np.int64]:
        """Hamming distances from every row to row ``index``."""
        xor = np.bitwise_xor(self._words, self._words[index])
        return popcount(xor).sum(axis=1)

    def hamming_block(
        self, rows_a: npt.NDArray[np.intp], rows_b: npt.NDArray[np.intp]
    ) -> npt.NDArray[np.int64]:
        """Pairwise Hamming distances between two sets of rows.

        Returns a ``len(rows_a) x len(rows_b)`` matrix.  Memory use is
        ``len(rows_a) * len(rows_b) * n_words * 8`` bytes for the
        intermediate XOR, so callers should tile large requests.
        """
        a = self._words[rows_a][:, None, :]
        b = self._words[rows_b][None, :, :]
        return popcount(np.bitwise_xor(a, b)).sum(axis=2)

    def pairwise_hamming(
        self, block_size: int = 512
    ) -> npt.NDArray[np.int64]:
        """Full ``n x n`` Hamming-distance matrix, computed in tiles.

        Intended for moderate ``n`` (the exact-clustering baseline); the
        result alone is ``n^2 * 8`` bytes.
        """
        n = self._n_rows
        out = np.empty((n, n), dtype=np.int64)
        indices = np.arange(n, dtype=np.intp)
        for start_a in range(0, n, block_size):
            rows_a = indices[start_a : start_a + block_size]
            for start_b in range(start_a, n, block_size):
                rows_b = indices[start_b : start_b + block_size]
                tile = self.hamming_block(rows_a, rows_b)
                out[
                    start_a : start_a + len(rows_a),
                    start_b : start_b + len(rows_b),
                ] = tile
                if start_b != start_a:
                    out[
                        start_b : start_b + len(rows_b),
                        start_a : start_a + len(rows_a),
                    ] = tile.T
        return out

    def rows_within_hamming(
        self, index: int, max_distance: int
    ) -> npt.NDArray[np.intp]:
        """Indices of all rows at Hamming distance ``<= max_distance`` from
        row ``index`` (including ``index`` itself)."""
        distances = self.hamming_to_row(index)
        return np.flatnonzero(distances <= max_distance)

    # ------------------------------------------------------------------
    # Hashing / grouping
    # ------------------------------------------------------------------
    def row_keys(self) -> list[bytes]:
        """A stable, content-based key per row.

        Two rows receive the same key iff their boolean content is equal,
        which makes exact-duplicate grouping a dictionary build.
        """
        if self._n_rows == 0:
            return []
        raw = np.ascontiguousarray(self._words)
        row_bytes = raw.view(np.uint8).reshape(self._n_rows, -1)
        return [row.tobytes() for row in row_bytes]

    def equal_row_groups(self) -> list[list[int]]:
        """Groups of row indices with identical content (size >= 2 only).

        Groups are returned sorted by their smallest member; members are
        sorted ascending.  This is the deterministic ground truth against
        which all three paper approaches are tested.
        """
        buckets: dict[bytes, list[int]] = {}
        for row_index, key in enumerate(self.row_keys()):
            buckets.setdefault(key, []).append(row_index)
        groups = [members for members in buckets.values() if len(members) > 1]
        groups.sort(key=lambda members: members[0])
        return groups

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    def __iter__(self) -> Iterator[BoolMatrix]:
        for index in range(self._n_rows):
            yield self.row(index)

    def __repr__(self) -> str:
        return f"BitMatrix(shape={self.shape})"


def pack_csr_rows(matrix, block_rows: int = 4096) -> npt.NDArray[np.uint64]:
    """Pack a CSR matrix into little-endian uint64 words, block by block.

    Works directly off ``indptr``/``indices`` so only ``block_rows`` rows
    are ever densified at once — packing an ``n x m`` CSR costs
    ``O(block_rows * m)`` transient memory instead of ``O(n * m)``.
    Explicit zeros in ``data`` are ignored.
    """
    n_rows, n_cols = matrix.shape
    n_words = max(1, -(-int(n_cols) // _WORD_BITS))
    out = np.empty((n_rows, n_words), dtype=np.uint64)
    if n_rows == 0:
        return out
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    indptr = np.asarray(matrix.indptr)
    indices = np.asarray(matrix.indices)
    data = np.asarray(matrix.data)
    padded_cols = n_words * _WORD_BITS
    for start in range(0, n_rows, block_rows):
        stop = min(start + block_rows, n_rows)
        lo, hi = int(indptr[start]), int(indptr[stop])
        cols = indices[lo:hi]
        row_ids = np.repeat(
            np.arange(stop - start, dtype=np.intp),
            np.diff(indptr[start : stop + 1]),
        )
        nonzero = data[lo:hi] != 0
        dense = np.zeros((stop - start, padded_cols), dtype=bool)
        dense[row_ids[nonzero], cols[nonzero]] = True
        packed = np.packbits(dense, axis=1, bitorder="little")
        out[start:stop] = np.ascontiguousarray(packed).view(np.uint64)
    return out


def _pack_rows(dense: BoolMatrix) -> npt.NDArray[np.uint64]:
    """Pack a dense boolean matrix into little-endian uint64 words."""
    n_rows, n_cols = dense.shape
    n_words = max(1, -(-n_cols // _WORD_BITS))
    if n_rows == 0:
        return np.empty((0, n_words), dtype=np.uint64)
    padded_cols = n_words * _WORD_BITS
    if padded_cols != n_cols:
        padded = np.zeros((n_rows, padded_cols), dtype=bool)
        padded[:, :n_cols] = dense
    else:
        padded = dense
    packed_bytes = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed_bytes).view(np.uint64)
