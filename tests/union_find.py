"""Union-find: the reference the grouping primitive is tested against.

:mod:`repro.util.groups` builds canonical groups with
``scipy.sparse.csgraph``; this plain disjoint-set forest with a
dictionary-built ``groups`` is slow but obviously right, so
``tests/util/test_groups.py`` and the DBSCAN component property compare
against it (and ``tests/util/test_disjoint_set.py`` pins it down).
"""

from __future__ import annotations


class DisjointSet:
    """Union-find with path compression and union by size."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self._parent = list(range(n))
        self._size = [1] * n
        self._n_components = n

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def n_components(self) -> int:
        """Number of disjoint components (singletons included)."""
        return self._n_components

    def find(self, x: int) -> int:
        """Root of ``x``'s component (with path halving)."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the components of ``a`` and ``b``.

        Returns ``True`` if a merge happened, ``False`` if they already
        shared a component.
        """
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return False
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        self._n_components -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are in the same component."""
        return self.find(a) == self.find(b)

    def groups(self, min_size: int = 2) -> list[list[int]]:
        """Components with at least ``min_size`` members.

        Members are sorted ascending; groups ordered by smallest member —
        the canonical ordering shared by all group finders.
        """
        by_root: dict[int, list[int]] = {}
        for x in range(len(self._parent)):
            by_root.setdefault(self.find(x), []).append(x)
        result = [
            sorted(members)
            for members in by_root.values()
            if len(members) >= min_size
        ]
        result.sort(key=lambda members: members[0])
        return result
