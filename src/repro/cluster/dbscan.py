"""DBSCAN (Ester, Kriegel, Sander, Xu — KDD 1996), implemented from scratch.

This is the paper's *exact clustering* baseline.  The interface mirrors the
scikit-learn implementation the paper used:

* ``fit_predict`` returns one integer label per point;
* ``-1`` marks noise (points that belong to no cluster);
* labels are assigned in order of cluster discovery, so results are fully
  deterministic for a given input ordering.

The RBAC use case fixes ``min_samples = 2`` ("we want to find even two akin
roles") and ``eps = k + epsilon`` where ``k`` is the allowed number of
differing users/permissions (``k = 0`` for exact duplicates).  With
``min_samples = 2`` every point with at least one neighbour is a core
point, so border-point subtleties disappear and clusters are exactly the
connected components of the "distance <= eps" graph — the same semantics
as the custom algorithm, which is what makes the three methods comparable.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import numpy.typing as npt

from repro.cluster.distances import DistanceFn
from repro.cluster.neighbors import (
    BitpackedHammingSearch,
    BruteForceSearch,
    NeighborSearch,
)
from repro.exceptions import ConfigurationError
from repro.obs import current_recorder

#: Label used for noise points, matching scikit-learn's convention.
NOISE = -1


class DBSCAN:
    """Density-based spatial clustering of applications with noise.

    Parameters
    ----------
    eps:
        Maximum distance between two samples for one to be considered in
        the neighbourhood of the other.
    min_samples:
        Number of samples in a neighbourhood (including the point itself)
        for a point to qualify as a core point.
    metric:
        Metric name or callable (see :mod:`repro.cluster.distances`), or
        the string ``"bitpacked-hamming"`` to use the packed-word Hamming
        backend on boolean data.
    """

    def __init__(
        self,
        eps: float,
        min_samples: int = 2,
        metric: str | DistanceFn = "hamming",
    ) -> None:
        if eps < 0:
            raise ConfigurationError(f"eps must be >= 0, got {eps}")
        if min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {min_samples}"
            )
        self.eps = float(eps)
        self.min_samples = int(min_samples)
        self.metric = metric
        self.labels_: npt.NDArray[np.intp] | None = None

    def _build_search(self, data: npt.ArrayLike) -> NeighborSearch:
        if isinstance(data, NeighborSearch):
            return data
        if self.metric == "bitpacked-hamming":
            return BitpackedHammingSearch(data)
        return BruteForceSearch(data, metric=self.metric)

    def fit_predict(self, data: npt.ArrayLike) -> npt.NDArray[np.intp]:
        """Cluster ``data`` and return per-point integer labels.

        ``data`` may also be a pre-built
        :class:`~repro.cluster.neighbors.NeighborSearch`, which lets
        callers reuse an index across runs.
        """
        search = self._build_search(data)
        labels = dbscan_labels(search, self.eps, self.min_samples)
        self.labels_ = labels
        return labels


def dbscan_labels(
    search: NeighborSearch, eps: float, min_samples: int
) -> npt.NDArray[np.intp]:
    """Run the DBSCAN expansion loop over a neighbour-search backend.

    Classic algorithm: visit each unlabelled point, query its
    eps-neighbourhood; if it is a core point, start a new cluster and grow
    it breadth-first through the neighbourhoods of core members.  Border
    points join the first cluster that reaches them; points never reached
    by a core point stay noise.

    An ``enqueued`` mask guarantees every point enters an expansion queue
    at most once across the whole run.  Without it, each core expansion
    re-added every not-yet-visited neighbour, so on a dense cluster the
    queue grew to O(cluster_size^2) duplicate entries; every point is
    still labelled identically, but the queue memory and the redundant
    pop/requeue work are quadratic.  With the mask both the queue and the
    number of ``radius_neighbors`` queries are bounded by ``n``
    (``tests/cluster/test_dbscan.py::TestQueryEfficiency`` pins this).

    Observability: the run is wrapped in a ``dbscan.fit`` span, with one
    ``dbscan.expand`` child span per discovered cluster.  Neighbour
    queries are counted where they happen (seed queries on the fit span,
    expansion queries on the expansion span), so subtree totals equal
    total queries without double counting.  Under the default null
    recorder all of this is a no-op.
    """
    recorder = current_recorder()
    n = search.n_points
    labels = np.full(n, NOISE, dtype=np.intp)
    visited = np.zeros(n, dtype=bool)
    enqueued = np.zeros(n, dtype=bool)
    next_label = 0

    with recorder.span(
        "dbscan.fit", eps=float(eps), min_samples=int(min_samples)
    ) as fit_span:
        fit_span.add("dbscan.points", int(n))
        for point in range(n):
            if visited[point]:
                continue
            visited[point] = True
            neighbors = search.radius_neighbors(point, eps)
            fit_span.add("dbscan.seed_queries")
            if len(neighbors) < min_samples:
                continue  # noise unless later absorbed as a border point
            with recorder.span(
                "dbscan.expand", label=int(next_label)
            ) as expand_span:
                members = 1
                labels[point] = next_label
                enqueued[point] = True
                queue = deque()
                for i in neighbors:
                    if not enqueued[i]:
                        enqueued[i] = True
                        queue.append(int(i))
                while queue:
                    candidate = queue.popleft()
                    if labels[candidate] == NOISE:
                        # Border or core, joins the cluster.
                        labels[candidate] = next_label
                        members += 1
                    if visited[candidate]:
                        continue
                    visited[candidate] = True
                    candidate_neighbors = search.radius_neighbors(
                        candidate, eps
                    )
                    expand_span.add("dbscan.expand_queries")
                    if len(candidate_neighbors) >= min_samples:
                        for i in candidate_neighbors:
                            if not enqueued[i]:
                                enqueued[i] = True
                                queue.append(int(i))
                expand_span.add("dbscan.cluster_members", members)
            next_label += 1
        fit_span.add("dbscan.clusters", int(next_label))
        fit_span.add("dbscan.noise_points", int(np.sum(labels == NOISE)))

    return labels
