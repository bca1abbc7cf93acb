"""Unit tests for AssignmentMatrix (RUAM / RPAM)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.matrices import AssignmentMatrix
from repro.core.state import RbacState
from repro.exceptions import ValidationError


@pytest.fixture
def state() -> RbacState:
    return RbacState.build(
        users=["u1", "u2", "u3"],
        roles=["r1", "r2"],
        permissions=["p1", "p2"],
        user_assignments=[("r1", "u1"), ("r1", "u3"), ("r2", "u2")],
        permission_assignments=[("r1", "p2"), ("r2", "p1"), ("r2", "p2")],
    )


class TestConstruction:
    def test_ruam_shape_and_content(self, state):
        ruam = AssignmentMatrix.ruam(state)
        assert ruam.shape == (2, 3)
        assert ruam.row_ids == ["r1", "r2"]
        assert ruam.col_ids == ["u1", "u2", "u3"]
        assert ruam.dense.tolist() == [
            [True, False, True],
            [False, True, False],
        ]

    def test_rpam_content(self, state):
        rpam = AssignmentMatrix.rpam(state)
        assert rpam.dense.tolist() == [
            [False, True],
            [True, True],
        ]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            AssignmentMatrix(np.zeros((2, 2), dtype=bool), ["a"], ["x", "y"])

    def test_duplicate_row_ids_rejected(self):
        with pytest.raises(ValidationError):
            AssignmentMatrix(
                np.zeros((2, 1), dtype=bool), ["a", "a"], ["x"]
            )

    def test_duplicate_col_ids_rejected(self):
        with pytest.raises(ValidationError):
            AssignmentMatrix(
                np.zeros((1, 2), dtype=bool), ["a"], ["x", "x"]
            )

    def test_accepts_sparse_input(self):
        matrix = AssignmentMatrix(
            sp.csr_matrix(np.eye(2)), ["a", "b"], ["x", "y"]
        )
        assert matrix.dense.tolist() == [[True, False], [False, True]]


class TestRepresentations:
    def test_dense_csr_bits_agree(self, state):
        ruam = AssignmentMatrix.ruam(state)
        dense = ruam.dense
        assert np.array_equal(ruam.csr.toarray().astype(bool), dense)
        assert np.array_equal(ruam.bits.to_dense(), dense)

    def test_csr_dtype_int64(self, state):
        assert AssignmentMatrix.ruam(state).csr.dtype == np.int64

    def test_lazy_dense_from_sparse(self):
        matrix = AssignmentMatrix(
            sp.csr_matrix((2, 2), dtype=np.int64), ["a", "b"], ["x", "y"]
        )
        assert matrix.dense.sum() == 0


class TestSums:
    def test_row_sums(self, state):
        ruam = AssignmentMatrix.ruam(state)
        assert ruam.row_sums.tolist() == [2, 1]

    def test_col_sums(self, state):
        ruam = AssignmentMatrix.ruam(state)
        assert ruam.col_sums.tolist() == [1, 1, 1]

    def test_rows_with_sum(self, state):
        ruam = AssignmentMatrix.ruam(state)
        assert ruam.rows_with_sum(1) == ["r2"]
        assert ruam.rows_with_sum(0) == []

    def test_cols_with_sum_zero_identifies_standalone(self):
        s = RbacState.build(
            users=["u1", "u2"], roles=["r1"], permissions=[],
            user_assignments=[("r1", "u1")],
        )
        ruam = AssignmentMatrix.ruam(s)
        assert ruam.cols_with_sum(0) == ["u2"]


class TestLabelMapping:
    def test_row_id_and_index_round_trip(self, state):
        ruam = AssignmentMatrix.ruam(state)
        for index, role_id in enumerate(ruam.row_ids):
            assert ruam.row_id(index) == role_id
            assert ruam.row_index(role_id) == index

    def test_unknown_row_id_raises(self, state):
        with pytest.raises(ValidationError):
            AssignmentMatrix.ruam(state).row_index("nope")

    def test_row_ids_at(self, state):
        ruam = AssignmentMatrix.ruam(state)
        assert ruam.row_ids_at(np.array([1, 0, 1])) == ["r2", "r1", "r2"]
        assert ruam.row_ids_at(np.array([], dtype=np.intp)) == []


class TestMemoryShape:
    def test_matrices_store_r_by_u_and_r_by_p(self, state):
        """The paper's memory argument: r*(p+u) instead of (r+p+u)^2."""
        ruam = AssignmentMatrix.ruam(state)
        rpam = AssignmentMatrix.rpam(state)
        assert ruam.shape == (state.n_roles, state.n_users)
        assert rpam.shape == (state.n_roles, state.n_permissions)
