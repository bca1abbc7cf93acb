"""Approximate-clustering baseline: HNSW nearest-neighbour search (§III-C).

Mirrors the paper's use of the ``datasketch`` HNSW index: build an index
over all role vectors using Manhattan distance (equal to Hamming on 0/1
data), then query it once per role to collect the roles within the allowed
distance, finally chaining pairs into groups.

Because the index search is approximate, some group members may be missed;
the paper argues this is acceptable for a periodically-run cleanup where
results converge over repeated runs.  The trade-off the benchmarks show —
expensive index construction amortised by fast queries at scale — comes
directly from the index structure.
"""

from __future__ import annotations

from typing import Any

from repro.ann import HNSWIndex
from repro.core.grouping.base import GroupFinder, register_group_finder
from repro.util import groups_of_pairs

#: Float-comparison guard, as for the DBSCAN baseline.
EPSILON = 1e-6


@register_group_finder("hnsw")
class HnswGroupFinder(GroupFinder):
    """Group finder backed by the from-scratch HNSW index.

    Parameters
    ----------
    m:
        HNSW out-degree parameter.
    ef_construction:
        Beam width during index construction.
    ef_search:
        Beam width during the per-role radius queries; larger values raise
        recall at the cost of query time.
    seed:
        Level-sampling seed (fixes the index layout for reproducibility).
    """

    def __init__(
        self,
        m: int = 16,
        ef_construction: int = 64,
        ef_search: int = 64,
        seed: int | None = 0,
    ) -> None:
        self._m = m
        self._ef_construction = ef_construction
        self._ef_search = ef_search
        self._seed = seed

    def find_groups(
        self, matrix: Any, max_differences: int = 0
    ) -> list[list[int]]:
        k = self._check_threshold(max_differences)
        dense = self._dense_of(matrix)
        return self._group_dense(dense, k)

    def find_groups_in(
        self, view: Any, max_differences: int = 0
    ) -> list[list[int]]:
        """Index the view's shared dense artifact (no re-densify)."""
        k = self._check_threshold(max_differences)
        if view.n_rows == 0:
            return []
        return self._group_dense(view.dense, k)

    def warm(self, view: Any, max_differences: int = 0) -> None:
        """Materialise the dense artifact the index is built over."""
        if view.n_rows:
            view.dense

    def _group_dense(self, dense: Any, k: int) -> list[list[int]]:
        n_rows = dense.shape[0]
        if n_rows == 0:
            return []

        index = HNSWIndex(
            dim=dense.shape[1],
            metric="manhattan",
            m=self._m,
            ef_construction=self._ef_construction,
            seed=self._seed,
        )
        index.add_items(dense)

        rows: list[int] = []
        cols: list[int] = []
        radius = k + EPSILON
        for row_index in range(n_rows):
            hits = index.radius_search(
                dense[row_index], radius=radius, ef=self._ef_search
            )
            for neighbor, _distance in hits:
                rows.append(row_index)
                cols.append(neighbor)
        return groups_of_pairs(n_rows, rows, cols)
