"""Packed boolean-matrix substrate.

RBAC assignment matrices (RUAM / RPAM) are boolean.  Packing each row into
``uint64`` words makes Hamming-distance computations roughly 64x cheaper in
both memory traffic and arithmetic: the distance between two rows is the
popcount of the XOR of their word vectors.

This package provides:

* :class:`~repro.bitmatrix.packed.BitMatrix` — an immutable packed matrix
  with row popcounts, pairwise/blocked Hamming distances, and stable row
  hashing (used by the hash-based duplicate finder).
* :func:`~repro.bitmatrix.packed.popcount` — vectorised popcount for
  ``uint64`` arrays, usable independently.
* :mod:`~repro.bitmatrix.sparse` — helpers for building sparse CSR matrices
  and role co-occurrence products on top of ``scipy.sparse``.
"""

from repro.bitmatrix.formats import FormatStats, evaluate_formats, recommend_format
from repro.bitmatrix.packed import (
    HAVE_HW_POPCOUNT,
    BitMatrix,
    pack_csr_rows,
    popcount,
)
from repro.bitmatrix.sparse import (
    cooccurrence,
    csr_row_keys,
    equal_row_groups_sparse,
    row_content_classes,
    row_norms,
    to_csr,
)

__all__ = [
    "BitMatrix",
    "FormatStats",
    "HAVE_HW_POPCOUNT",
    "evaluate_formats",
    "recommend_format",
    "pack_csr_rows",
    "popcount",
    "cooccurrence",
    "csr_row_keys",
    "equal_row_groups_sparse",
    "row_content_classes",
    "row_norms",
    "to_csr",
]
