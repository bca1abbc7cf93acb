"""Unit tests for the sparse co-occurrence helpers."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bitmatrix import (
    cooccurrence,
    csr_row_keys,
    equal_row_groups_sparse,
    row_content_classes,
    row_norms,
    to_csr,
)


class TestToCsr:
    def test_from_dense_bool(self):
        csr = to_csr(np.array([[True, False], [False, True]]))
        assert sp.issparse(csr)
        assert csr.dtype == np.int64
        assert csr.toarray().tolist() == [[1, 0], [0, 1]]

    def test_from_list(self):
        csr = to_csr([[1, 0, 1]])
        assert csr.toarray().tolist() == [[1, 0, 1]]

    def test_from_sparse_passthrough(self):
        original = sp.coo_matrix(np.eye(3))
        csr = to_csr(original)
        assert isinstance(csr, sp.csr_matrix)
        assert csr.dtype == np.int64

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            to_csr([1, 0, 1])


class TestCooccurrence:
    def test_paper_example_matrix(self):
        # RUAM of Figure 1: R01={U01}, R02={U02,U03}, R03={}, R04={U02,U03},
        # R05={U04} — the co-occurrence matrix printed in §III-C.
        ruam = [
            [1, 0, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 1],
        ]
        cooc = cooccurrence(ruam).toarray()
        expected = [
            [1, 0, 0, 0, 0],
            [0, 2, 0, 2, 0],
            [0, 0, 0, 0, 0],
            [0, 2, 0, 2, 0],
            [0, 0, 0, 0, 1],
        ]
        assert cooc.tolist() == expected

    def test_diagonal_is_row_norm(self):
        rng = np.random.default_rng(5)
        dense = rng.random((10, 30)) < 0.3
        cooc = cooccurrence(dense).toarray()
        assert np.array_equal(np.diag(cooc), dense.sum(axis=1))

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        dense = rng.random((8, 20)) < 0.4
        cooc = cooccurrence(dense).toarray()
        assert np.array_equal(cooc, cooc.T)


class TestRowNorms:
    def test_matches_dense_sums(self):
        dense = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 1]], dtype=bool)
        assert row_norms(dense).tolist() == [2, 0, 3]


class TestCsrRowKeys:
    def test_equal_rows_share_keys(self):
        keys = csr_row_keys([[1, 0, 1], [1, 0, 1], [0, 1, 0]])
        assert keys[0] == keys[1]
        assert keys[0] != keys[2]

    def test_unsorted_indices_are_canonicalised(self):
        # Build a CSR with deliberately unsorted indices in one row.
        indptr = np.array([0, 2, 4])
        indices = np.array([2, 0, 0, 2])
        data = np.ones(4, dtype=np.int64)
        messy = sp.csr_matrix((data, indices, indptr), shape=(2, 3))
        keys = csr_row_keys(messy)
        assert keys[0] == keys[1]

    def test_empty_rows_share_a_key(self):
        keys = csr_row_keys(np.zeros((3, 4), dtype=bool))
        assert keys[0] == keys[1] == keys[2]

    @pytest.mark.parametrize("seed", range(20))
    def test_keys_are_the_per_row_keys(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_cols = rng.integers(0, 30), rng.integers(1, 40)
        density = rng.choice([0.0, 0.05, 0.3, 0.9])
        dense = rng.random((n_rows, n_cols)) < density
        dense[rng.random(n_rows) < 0.3] = False  # empty rows
        csr = sp.csr_matrix(dense, dtype=np.int64)
        # The same rows with each row's indices shuffled.
        indices = csr.indices.copy()
        for start, end in zip(csr.indptr[:-1], csr.indptr[1:]):
            rng.shuffle(indices[start:end])
        messy = sp.csr_matrix(
            (csr.data, indices, csr.indptr), shape=csr.shape
        )
        expected = per_row_keys(dense)
        for matrix in (dense, dense.astype(np.int8), csr, messy, messy.tocoo()):
            assert csr_row_keys(matrix) == expected
        assert messy.indices.tolist() == indices.tolist()  # left as it was


def per_row_keys(matrix) -> list[bytes]:
    """Each row's sorted column indices as int64 bytes, one row at a time."""
    csr = to_csr(matrix).copy()
    csr.sort_indices()
    indices = csr.indices.astype(np.int64)
    return [
        indices[csr.indptr[row] : csr.indptr[row + 1]].tobytes()
        for row in range(csr.shape[0])
    ]


class TestRowContentClasses:
    def test_first_seen_order(self):
        dense = np.array(
            [[0, 1, 1], [1, 0, 0], [0, 1, 1], [0, 0, 1], [1, 0, 0], [0, 1, 1]]
        )
        representatives, sizes, class_index = row_content_classes(
            csr_row_keys(dense)
        )
        assert representatives.tolist() == [0, 1, 3]
        assert sizes.tolist() == [3, 2, 1]
        assert class_index.tolist() == [0, 1, 0, 2, 1, 0]
        assert representatives.dtype == class_index.dtype == np.intp
        assert sizes.dtype == np.int64

    def test_keys_compared_whole(self):
        # Column 0's key is eight zero bytes: a fixed-width byte-string
        # array would strip them and merge the row with an empty one.
        keys = csr_row_keys(np.array([[1, 0], [0, 0], [1, 0]], dtype=bool))
        assert row_content_classes(keys)[2].tolist() == [0, 1, 0]

    def test_no_rows(self):
        representatives, sizes, class_index = row_content_classes([])
        assert len(representatives) == len(sizes) == len(class_index) == 0


class TestEqualRowGroupsSparse:
    def test_matches_bitmatrix_grouping(self):
        from repro.bitmatrix import BitMatrix

        rng = np.random.default_rng(7)
        dense = rng.random((30, 12)) < 0.2
        dense[5] = dense[17]
        dense[3] = dense[29]
        assert (
            equal_row_groups_sparse(dense)
            == BitMatrix(dense).equal_row_groups()
        )

    def test_empty_matrix(self):
        assert equal_row_groups_sparse(np.zeros((0, 3), dtype=bool)) == []
