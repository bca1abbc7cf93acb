"""Unit tests for the union-find reference (tests/union_find.py)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from union_find import DisjointSet


class TestBasics:
    def test_new_set_has_singletons(self):
        ds = DisjointSet(5)
        assert len(ds) == 5
        assert ds.n_components == 5
        for i in range(5):
            assert ds.find(i) == i

    def test_zero_size_is_allowed(self):
        ds = DisjointSet(0)
        assert len(ds) == 0
        assert ds.groups() == []

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DisjointSet(-1)

    def test_union_merges(self):
        ds = DisjointSet(4)
        assert ds.union(0, 1) is True
        assert ds.connected(0, 1)
        assert not ds.connected(0, 2)
        assert ds.n_components == 3

    def test_union_idempotent(self):
        ds = DisjointSet(3)
        assert ds.union(0, 1) is True
        assert ds.union(1, 0) is False
        assert ds.n_components == 2

    def test_transitive_connection(self):
        ds = DisjointSet(4)
        ds.union(0, 1)
        ds.union(1, 2)
        assert ds.connected(0, 2)
        assert not ds.connected(0, 3)


class TestGroups:
    def test_groups_only_nontrivial_by_default(self):
        ds = DisjointSet(5)
        ds.union(1, 3)
        assert ds.groups() == [[1, 3]]

    def test_groups_min_size_one_includes_singletons(self):
        ds = DisjointSet(3)
        ds.union(0, 2)
        assert ds.groups(min_size=1) == [[0, 2], [1]]

    def test_groups_sorted_by_smallest_member(self):
        ds = DisjointSet(6)
        ds.union(4, 5)
        ds.union(0, 3)
        groups = ds.groups()
        assert groups == [[0, 3], [4, 5]]

    def test_members_sorted_ascending(self):
        ds = DisjointSet(5)
        ds.union(4, 2)
        ds.union(2, 0)
        assert ds.groups() == [[0, 2, 4]]


class TestProperties:
    @given(
        st.integers(min_value=1, max_value=50),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=49),
                st.integers(min_value=0, max_value=49),
            ),
            max_size=100,
        ),
    )
    def test_components_partition_the_universe(self, n, pairs):
        ds = DisjointSet(n)
        for a, b in pairs:
            if a < n and b < n:
                ds.union(a, b)
        groups = ds.groups(min_size=1)
        flattened = sorted(x for group in groups for x in group)
        assert flattened == list(range(n))
        assert len(groups) == ds.n_components

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=19),
                st.integers(min_value=0, max_value=19),
            ),
            max_size=60,
        )
    )
    def test_connectivity_matches_naive_reachability(self, pairs):
        n = 20
        ds = DisjointSet(n)
        adjacency = {i: set() for i in range(n)}
        for a, b in pairs:
            ds.union(a, b)
            adjacency[a].add(b)
            adjacency[b].add(a)

        def reachable(start: int) -> set[int]:
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbor in adjacency[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            return seen

        for i in range(n):
            component = reachable(i)
            for j in range(n):
                assert ds.connected(i, j) == (j in component)
