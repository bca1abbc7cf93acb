"""Exact-clustering baseline: DBSCAN over role vectors (§III-C).

Parameters follow the paper: ``min_samples = 2`` (a group of two akin
roles must be found), Hamming distance, and ``eps = max_differences + ε``
where the small epsilon guards against floating-point comparison noise
exactly as the paper does for the scikit-learn implementation.

With ``min_samples = 2`` DBSCAN clusters are the connected components of
the "distance <= eps" graph, so the output matches the custom algorithm
on every input — only slower, which is the point of the baseline.
"""

from __future__ import annotations

from typing import Any

from repro.cluster import DBSCAN
from repro.core.grouping.base import GroupFinder, register_group_finder
from repro.exceptions import ConfigurationError
from repro.obs import current_recorder
from repro.util import groups_of_labels

#: Float-comparison guard added to the integer threshold (paper §III-D).
EPSILON = 1e-6


@register_group_finder("dbscan")
class DbscanGroupFinder(GroupFinder):
    """Group finder backed by the from-scratch DBSCAN implementation.

    Parameters
    ----------
    backend:
        ``"hamming"`` (default) scans dense rows per query, mirroring the
        dense brute-force neighbour search scikit-learn uses on this kind
        of data; ``"bitpacked-hamming"`` runs the same algorithm on packed
        words (used by the ablation benchmarks).
    """

    def __init__(self, backend: str = "hamming") -> None:
        if backend not in ("hamming", "bitpacked-hamming"):
            raise ConfigurationError(f"unsupported backend: {backend!r}")
        self._backend = backend

    def find_groups(
        self, matrix: Any, max_differences: int = 0
    ) -> list[list[int]]:
        k = self._check_threshold(max_differences)
        dense = self._dense_of(matrix)
        return self._group_dense(dense, k)

    def find_groups_in(
        self, view: Any, max_differences: int = 0
    ) -> list[list[int]]:
        """Cluster the view's shared dense artifact (no re-densify)."""
        k = self._check_threshold(max_differences)
        if view.n_rows == 0:
            return []
        return self._group_dense(view.dense, k)

    def warm(self, view: Any, max_differences: int = 0) -> None:
        """Materialise the dense artifact DBSCAN will cluster."""
        if view.n_rows:
            view.dense

    def _group_dense(self, dense: Any, k: int) -> list[list[int]]:
        if dense.shape[0] == 0:
            return []
        with current_recorder().span(
            "finder:dbscan", k=k, backend=self._backend
        ) as span:
            span.add("dbscan.rows", int(dense.shape[0]))
            clusterer = DBSCAN(
                eps=k + EPSILON, min_samples=2, metric=self._backend
            )
            labels = clusterer.fit_predict(dense)
            groups = groups_of_labels(labels)
            span.add("dbscan.groups", len(groups))
        return groups
