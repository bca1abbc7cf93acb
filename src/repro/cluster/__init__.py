"""From-scratch density-based clustering substrate.

The paper's *exact clustering* baseline uses DBSCAN (Ester et al., 1996)
with Hamming distance, ``min_samples = 2`` and ``eps`` set to the allowed
number of differing users/permissions (plus a small epsilon for float
safety).  scikit-learn is not available offline, so this package implements
DBSCAN directly:

* :mod:`~repro.cluster.distances` — metric library (hamming, manhattan,
  euclidean, jaccard) operating on dense numpy rows.
* :mod:`~repro.cluster.neighbors` — neighbour-search backends: a generic
  brute-force search for any metric, and a bit-packed Hamming search that
  matches the packed representation used elsewhere.
* :mod:`~repro.cluster.dbscan` — the DBSCAN driver itself, returning
  scikit-learn-compatible integer labels (``-1`` marks noise).
"""

from repro.cluster.dbscan import DBSCAN, NOISE, dbscan_labels
from repro.cluster.distances import (
    METRICS,
    euclidean_distances,
    hamming_distances,
    jaccard_distances,
    manhattan_distances,
    resolve_metric,
)
from repro.cluster.neighbors import (
    BitpackedHammingSearch,
    BruteForceSearch,
    NeighborSearch,
)
from repro.util import groups_of_labels as labels_to_groups

__all__ = [
    "DBSCAN",
    "NOISE",
    "dbscan_labels",
    "labels_to_groups",
    "METRICS",
    "resolve_metric",
    "hamming_distances",
    "manhattan_distances",
    "euclidean_distances",
    "jaccard_distances",
    "NeighborSearch",
    "BruteForceSearch",
    "BitpackedHammingSearch",
]
