"""Sparse-matrix helpers for the custom co-occurrence algorithm.

The paper's custom algorithm (§III-C) is built on the co-occurrence matrix
``C = M @ M.T`` where ``M`` is RUAM (or RPAM).  For realistic RBAC data
``M`` is extremely sparse (a role touches a handful of users out of tens of
thousands), so the product is computed with ``scipy.sparse`` CSR matrices.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from repro.types import as_bool_matrix
from repro.util import groups_of_labels


def to_csr(matrix: npt.ArrayLike | sp.spmatrix) -> sp.csr_matrix:
    """Coerce dense/array-like/sparse input into an integer CSR matrix.

    Boolean content is mapped to 0/1 ``int64`` so that matrix products
    count co-occurrences rather than saturate.
    """
    if sp.issparse(matrix):
        return matrix.tocsr().astype(np.int64)
    dense = as_bool_matrix(matrix)
    return sp.csr_matrix(dense, dtype=np.int64)


def cooccurrence(matrix: npt.ArrayLike | sp.spmatrix) -> sp.csr_matrix:
    """Role co-occurrence matrix ``C = M @ M.T`` as sparse CSR.

    ``C[i, j]`` is the number of columns set in both row ``i`` and row
    ``j``; ``C[i, i]`` is the row popcount ``|R^i|`` — exactly the matrix
    the paper defines in §III-C.
    """
    csr = to_csr(matrix)
    product = csr @ csr.T
    return product.tocsr()


def row_norms(matrix: npt.ArrayLike | sp.spmatrix) -> npt.NDArray[np.int64]:
    """Per-row popcounts ``|R^i|`` of a boolean matrix."""
    csr = to_csr(matrix)
    return np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)


def csr_row_keys(matrix: npt.ArrayLike | sp.spmatrix) -> list[bytes]:
    """A stable content key per row of a sparse boolean matrix.

    Two rows receive the same key iff they have the same set of nonzero
    columns.  Unlike :meth:`repro.bitmatrix.BitMatrix.row_keys` this never
    densifies, so it scales to the real-organisation matrix sizes
    (tens of thousands of roles x hundreds of thousands of permissions).
    """
    csr = to_csr(matrix).copy()
    csr.sort_indices()
    indptr = csr.indptr
    indices = csr.indices.astype(np.int64)
    return [
        indices[indptr[row] : indptr[row + 1]].tobytes()
        for row in range(csr.shape[0])
    ]


def row_content_classes(
    keys: list[bytes],
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.int64], npt.NDArray[np.intp]]:
    """Classes of rows with equal content keys, numbered in first-seen order.

    ``keys`` are exact row keys (:func:`csr_row_keys`), compared whole,
    so two rows share a class iff they have the same content.  Returns
    the first row of each class, each class's size, and the class of
    every row.
    """
    classes: dict[bytes, int] = {}
    class_index = np.fromiter(
        (classes.setdefault(key, len(classes)) for key in keys),
        dtype=np.intp,
        count=len(keys),
    )
    # Classes are numbered as first seen, so the first row of each
    # class is where its number first appears.
    _, first = np.unique(class_index, return_index=True)
    sizes = np.bincount(class_index, minlength=len(classes))
    return first, sizes.astype(np.int64), class_index


def equal_row_groups_sparse(
    matrix: npt.ArrayLike | sp.spmatrix,
) -> list[list[int]]:
    """Groups of identical rows (size >= 2) of a sparse boolean matrix.

    Same ordering contract as
    :meth:`repro.bitmatrix.BitMatrix.equal_row_groups`.
    """
    return groups_of_labels(row_content_classes(csr_row_keys(matrix))[2])
