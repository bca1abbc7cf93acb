"""Assignment matrices (RUAM / RPAM) derived from an RBAC state.

The paper never materialises the full ``(r+u+p)^2`` adjacency matrix;
instead it works with the two rectangular sub-matrices (Step 2/3 of
Figure 1):

* **RUAM** — roles x users
* **RPAM** — roles x permissions

:class:`AssignmentMatrix` couples the boolean matrix with its row/column
labels so detector output can be mapped back to entity ids, and lazily
exposes three representations of the same data:

* ``dense`` — ``numpy`` boolean array (what DBSCAN/HNSW consume);
* ``csr`` — ``scipy.sparse`` CSR (what the custom algorithm consumes);
* ``bits`` — :class:`repro.bitmatrix.BitMatrix` (hashing / packed Hamming).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

from repro.bitmatrix import BitMatrix, to_csr
from repro.exceptions import ValidationError
from repro.types import BoolMatrix, as_bool_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.state import RbacState


class AssignmentMatrix:
    """A labelled boolean roles-by-X assignment matrix.

    Parameters
    ----------
    matrix:
        Dense boolean matrix or scipy sparse matrix, roles on rows.
    row_ids:
        Role id per row.
    col_ids:
        User or permission id per column.
    """

    def __init__(
        self,
        matrix: npt.ArrayLike | sp.spmatrix,
        row_ids: Sequence[str],
        col_ids: Sequence[str],
    ) -> None:
        if sp.issparse(matrix):
            self._csr: sp.csr_matrix | None = matrix.tocsr().astype(np.int64)
            self._dense: BoolMatrix | None = None
            shape = self._csr.shape
        else:
            self._dense = as_bool_matrix(matrix)
            self._csr = None
            shape = self._dense.shape
        if shape != (len(row_ids), len(col_ids)):
            raise ValidationError(
                f"matrix shape {shape} does not match labels "
                f"({len(row_ids)} rows, {len(col_ids)} cols)"
            )
        self._row_ids = list(row_ids)
        self._col_ids = list(col_ids)
        if len(set(self._row_ids)) != len(self._row_ids):
            raise ValidationError("row ids must be unique")
        if len(set(self._col_ids)) != len(self._col_ids):
            raise ValidationError("column ids must be unique")

    # ------------------------------------------------------------------
    # Construction from state
    # ------------------------------------------------------------------
    @classmethod
    def ruam(cls, state: "RbacState") -> "AssignmentMatrix":
        """Build the Role-User Assignment Matrix from a state."""
        return cls._from_state(state, "user", state.user_ids())

    @classmethod
    def rpam(cls, state: "RbacState") -> "AssignmentMatrix":
        """Build the Role-Permission Assignment Matrix from a state."""
        return cls._from_state(state, "permission", state.permission_ids())

    @classmethod
    def _from_state(
        cls, state: "RbacState", kind: str, col_ids: Sequence[str]
    ) -> "AssignmentMatrix":
        row_ids = state.role_ids()
        indptr, indices = state._edge_rows(kind)
        csr = sp.csr_matrix(
            (np.ones(len(indices), dtype=np.int64), indices, indptr),
            shape=(len(row_ids), len(col_ids)),
        )
        return cls(csr, row_ids, col_ids)

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (len(self._row_ids), len(self._col_ids))

    @property
    def n_rows(self) -> int:
        return len(self._row_ids)

    @property
    def n_cols(self) -> int:
        return len(self._col_ids)

    @property
    def row_ids(self) -> list[str]:
        return list(self._row_ids)

    @property
    def col_ids(self) -> list[str]:
        return list(self._col_ids)

    @property
    def dense(self) -> BoolMatrix:
        """Dense boolean view (materialised on first access)."""
        if self._dense is None:
            assert self._csr is not None
            self._dense = np.asarray(self._csr.todense()).astype(bool)
        return self._dense

    @property
    def csr(self) -> sp.csr_matrix:
        """Sparse CSR view with int64 0/1 entries."""
        if self._csr is None:
            assert self._dense is not None
            self._csr = to_csr(self._dense)
        return self._csr

    @cached_property
    def bits(self) -> BitMatrix:
        """Bit-packed view."""
        return BitMatrix(self.dense)

    # ------------------------------------------------------------------
    # Linear-scan statistics (types 1-3 of the taxonomy)
    # ------------------------------------------------------------------
    @cached_property
    def row_sums(self) -> npt.NDArray[np.int64]:
        """Edges per role — the row sums the paper computes once and reuses."""
        return np.asarray(self.csr.sum(axis=1)).ravel().astype(np.int64)

    @cached_property
    def col_sums(self) -> npt.NDArray[np.int64]:
        """Edges per user/permission column."""
        return np.asarray(self.csr.sum(axis=0)).ravel().astype(np.int64)

    def rows_with_sum(self, value: int) -> list[str]:
        """Role ids whose row sum equals ``value``."""
        return self.rows_where(self.row_sums == value)

    def cols_with_sum(self, value: int) -> list[str]:
        """Column (user/permission) ids whose column sum equals ``value``."""
        indices = np.flatnonzero(self.col_sums == value).tolist()
        return list(map(self._col_ids.__getitem__, indices))

    def rows_where(self, mask: npt.NDArray[np.bool_]) -> list[str]:
        """Role ids of the rows ``mask`` selects, in row order."""
        return self.row_ids_at(np.flatnonzero(mask))

    def row_ids_at(self, indices: npt.NDArray[np.integer]) -> list[str]:
        """Role ids of the rows at ``indices``, in their order."""
        return list(map(self._row_ids.__getitem__, indices.tolist()))

    # ------------------------------------------------------------------
    # Label mapping helpers
    # ------------------------------------------------------------------
    def row_id(self, index: int) -> str:
        return self._row_ids[index]

    def row_index(self, row_id: str) -> int:
        try:
            return self._row_index_map[row_id]
        except KeyError:
            raise ValidationError(f"unknown row id: {row_id!r}") from None

    @cached_property
    def _row_index_map(self) -> dict[str, int]:
        return {row_id: i for i, row_id in enumerate(self._row_ids)}

    def __repr__(self) -> str:
        return f"AssignmentMatrix(shape={self.shape})"
