"""Property-based tests: DBSCAN with min_samples=2 equals the connected
components of the distance<=eps graph (the invariant that makes the three
paper approaches comparable)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from union_find import DisjointSet

from repro.cluster import DBSCAN, labels_to_groups


def bool_matrices():
    return hnp.arrays(
        dtype=bool,
        shape=st.tuples(
            st.integers(min_value=1, max_value=14),
            st.integers(min_value=1, max_value=25),
        ),
    )


def components_by_definition(dense: np.ndarray, k: int) -> list[list[int]]:
    n = dense.shape[0]
    ds = DisjointSet(n)
    for i in range(n):
        for j in range(i + 1, n):
            if int(np.count_nonzero(dense[i] != dense[j])) <= k:
                ds.union(i, j)
    return ds.groups(min_size=2)


class TestComponentEquivalence:
    @given(bool_matrices(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_min_samples_two_is_graph_components(self, dense, k):
        labels = DBSCAN(eps=k + 1e-6, min_samples=2).fit_predict(dense)
        assert labels_to_groups(labels) == components_by_definition(dense, k)

    @given(bool_matrices())
    @settings(max_examples=40, deadline=None)
    def test_label_vector_well_formed(self, dense):
        labels = DBSCAN(eps=1e-6, min_samples=2).fit_predict(dense)
        assert len(labels) == dense.shape[0]
        used = sorted(set(labels.tolist()) - {-1})
        # Cluster ids are consecutive starting at 0.
        assert used == list(range(len(used)))

    @given(bool_matrices(), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_eps_monotonicity(self, dense, k):
        """Growing eps can only merge clusters, never split them."""
        small = labels_to_groups(
            DBSCAN(eps=k + 1e-6, min_samples=2).fit_predict(dense)
        )
        large = labels_to_groups(
            DBSCAN(eps=k + 1 + 1e-6, min_samples=2).fit_predict(dense)
        )
        for group in small:
            assert any(set(group) <= set(bigger) for bigger in large)
