"""Canonical role groups from a label vector or from matched pairs.

Every group finder ends by turning a relation over rows into groups:
exact duplicates share a content class (a label per row), and the
≤k-similarity relation is a set of matched pairs whose connected
components implement the chaining semantics shared by DBSCAN and the
custom algorithm.  These two functions are the only code that knows the
canonical order: members ascending, groups ordered by their smallest
member, groups smaller than ``min_size`` dropped.

Components are found with NumPy alone: importing ``scipy.sparse.csgraph``
also loads ``scipy.sparse.linalg`` and ``scipy.linalg``, which adds about
11 MB of resident memory to a process that needs neither.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import numpy.typing as npt


def groups_of_labels(
    labels: npt.ArrayLike, min_size: int = 2
) -> list[list[int]]:
    """Rows sharing a label, as canonical groups of at least ``min_size``.

    Negative labels (DBSCAN's noise) belong to no group.  Labels below
    ``min_size`` are dropped before any Python list is built, so a label
    vector of mostly singletons costs a few array passes.
    """
    labels = np.asarray(labels, dtype=np.intp)
    rows = np.flatnonzero(labels >= 0)
    counts = np.bincount(labels[rows], minlength=1)
    rows = rows[counts[labels[rows]] >= min_size]
    # A stable sort by label keeps each group's members ascending; the
    # groups are then put in the order of their first member.
    by_label = rows[np.argsort(labels[rows], kind="stable")]
    starts = np.flatnonzero(np.diff(labels[by_label], prepend=-1))
    bounds = np.append(starts, len(by_label)).tolist()
    members = by_label.tolist()
    return [
        members[bounds[group] : bounds[group + 1]]
        for group in np.argsort(by_label[starts]).tolist()
    ]


def groups_of_pairs(
    n_rows: int,
    rows: npt.ArrayLike,
    cols: npt.ArrayLike,
    min_size: int = 2,
) -> list[list[int]]:
    """Connected components of the pairs ``(rows[i], cols[i])`` over
    ``n_rows`` rows, as canonical groups of at least ``min_size``.

    Pair order, repetition, direction and self-pairs do not matter.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    # Hook and shortcut, whole arrays at a time: every row points at a
    # row of its component no larger than itself.  A round points every
    # row straight at its root, then hooks the larger root of each pair
    # still split onto the smaller one.  Rounds grow about as log(n_rows)
    # (14 for a randomly numbered path of a million rows), and the roots
    # left are the smallest rows of their components.
    parent = np.arange(n_rows)
    while True:
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]
        row_roots, col_roots = parent[rows], parent[cols]
        split = row_roots != col_roots
        if not split.any():
            return groups_of_labels(parent, min_size)
        rows, cols = rows[split], cols[split]
        row_roots, col_roots = row_roots[split], col_roots[split]
        np.minimum.at(
            parent,
            np.maximum(row_roots, col_roots),
            np.minimum(row_roots, col_roots),
        )


def flatten_groups(
    groups: list[list[int]],
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
    """``groups`` as one flat array of their members, in order, and the
    bounds that cut it: group ``g`` is ``members[bounds[g]:bounds[g + 1]]``."""
    bounds = np.zeros(len(groups) + 1, dtype=np.intp)
    np.cumsum(
        np.fromiter(map(len, groups), dtype=np.intp, count=len(groups)),
        out=bounds[1:],
    )
    members = np.fromiter(
        chain.from_iterable(groups), dtype=np.intp, count=int(bounds[-1])
    )
    return members, bounds
