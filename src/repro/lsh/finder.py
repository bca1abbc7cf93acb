"""The ``"lsh"`` group finder: MinHash LSH candidates, exact verification.

A second approximate baseline next to the paper's HNSW one.  Candidate
pairs come from banded MinHash collisions; each candidate is then
verified against the *exact* Hamming criterion before grouping, so the
finder is sound by construction:

* ``k = 0`` — identical rows have identical signatures, which collide in
  every band, so the finder is also **complete** (exact duplicates are
  never missed);
* ``k ≥ 1`` — a near-duplicate pair collides with the LSH S-curve
  probability at its Jaccard similarity; big overlapping sets (the RBAC
  type-5 shape) sit far up the curve, tiny sets may be missed.  The
  zero-overlap small-set case is handled by the same anchor pass the
  custom algorithm uses, keeping parity on degenerate inputs.
"""

from __future__ import annotations

from typing import Any

from repro.bitmatrix import row_norms
from repro.core.grouping.base import GroupFinder, register_group_finder
from repro.core.grouping.cooccurrence import zero_overlap_pairs
from repro.lsh.index import LshIndex
from repro.lsh.minhash import minhash_signatures
from repro.util import groups_of_pairs


@register_group_finder("lsh")
class LshGroupFinder(GroupFinder):
    """Approximate group finder backed by MinHash LSH.

    Parameters
    ----------
    n_hashes:
        Signature length (more hashes → better similarity resolution).
    n_bands:
        LSH bands; must divide ``n_hashes``.  More bands move the
        S-curve left (higher recall, more candidate noise).
    seed:
        Hash-family seed (fixes signatures for reproducibility).
    """

    def __init__(
        self, n_hashes: int = 64, n_bands: int = 16, seed: int = 0
    ) -> None:
        self._n_hashes = n_hashes
        self._n_bands = n_bands
        self._seed = seed

    def find_groups(
        self, matrix: Any, max_differences: int = 0
    ) -> list[list[int]]:
        k = self._check_threshold(max_differences)
        csr = self._csr_of(matrix)
        csr = csr.copy()
        csr.sort_indices()
        n_rows = csr.shape[0]
        if n_rows == 0:
            return []
        signatures = minhash_signatures(
            csr, n_hashes=self._n_hashes, seed=self._seed
        )
        return self._group_candidates(csr, signatures, row_norms(csr), k)

    def find_groups_in(
        self, view: Any, max_differences: int = 0
    ) -> list[list[int]]:
        """Group via the view's memoised signatures and norms.

        The signature artifact is keyed by ``(n_hashes, seed)``, so two
        LSH finders with equal parameters share one hashing pass; exact
        verification reads the shared CSR artifact.
        """
        k = self._check_threshold(max_differences)
        if view.n_rows == 0:
            return []
        signatures = view.signatures(self._n_hashes, self._seed)
        return self._group_candidates(view.csr, signatures, view.norms, k)

    def warm(self, view: Any, max_differences: int = 0) -> None:
        """Materialise the signature and CSR artifacts used above."""
        if max_differences < 0 or view.n_rows == 0:
            return
        view.signatures(self._n_hashes, self._seed)
        view.csr

    def _group_candidates(
        self, csr: Any, signatures: Any, norms: Any, k: int
    ) -> list[list[int]]:
        n_rows = csr.shape[0]
        index = LshIndex(signatures, n_bands=self._n_bands)
        indptr = csr.indptr
        indices = csr.indices

        def row_set(row: int) -> set[int]:
            return set(indices[indptr[row] : indptr[row + 1]].tolist())

        matched_rows: list[int] = []
        matched_cols: list[int] = []
        for i, j in index.candidate_pairs():
            # cheap norm bound first, then exact verification
            if abs(int(norms[i]) - int(norms[j])) > k:
                continue
            distance = len(row_set(i).symmetric_difference(row_set(j)))
            if distance <= k:
                matched_rows.append(i)
                matched_cols.append(j)

        # Zero-overlap small sets never collide in LSH; the custom
        # algorithm's anchor pairs keep degenerate inputs correct.
        anchor_rows, anchor_cols = zero_overlap_pairs(norms, k)
        return groups_of_pairs(
            n_rows,
            matched_rows + anchor_rows.tolist(),
            matched_cols + anchor_cols.tolist(),
        )
