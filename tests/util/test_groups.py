"""Tests for the canonical grouping primitive (repro.util.groups)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from union_find import DisjointSet

from repro.util import groups_of_labels, groups_of_pairs


def _pairs(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    array = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return array[:, 0], array[:, 1]


class TestGroupsOfPairs:
    def test_zero_rows(self):
        assert groups_of_pairs(0, [], []) == []

    def test_pair_outside_the_rows_rejected(self):
        with pytest.raises(IndexError):
            groups_of_pairs(3, [0], [3])

    def test_no_pairs(self):
        assert groups_of_pairs(5, [], []) == []
        assert groups_of_pairs(3, [], [], min_size=1) == [[0], [1], [2]]

    def test_self_loops_join_nothing(self):
        assert groups_of_pairs(3, [0, 1, 2], [0, 1, 2]) == []

    def test_repeated_and_reversed_pairs(self):
        rows, cols = _pairs([(1, 3), (3, 1), (1, 3), (3, 1)])
        assert groups_of_pairs(5, rows, cols) == [[1, 3]]

    def test_chaining_members_ascending(self):
        rows, cols = _pairs([(4, 2), (2, 0)])
        assert groups_of_pairs(5, rows, cols) == [[0, 2, 4]]

    def test_groups_ordered_by_smallest_member(self):
        rows, cols = _pairs([(4, 5), (0, 3)])
        assert groups_of_pairs(6, rows, cols) == [[0, 3], [4, 5]]

    def test_min_size(self):
        rows, cols = _pairs([(0, 2), (3, 4), (4, 5)])
        assert groups_of_pairs(6, rows, cols, min_size=1) == [
            [0, 2], [1], [3, 4, 5]
        ]
        assert groups_of_pairs(6, rows, cols) == [[0, 2], [3, 4, 5]]
        assert groups_of_pairs(6, rows, cols, min_size=3) == [[3, 4, 5]]

    def test_long_randomly_numbered_chain(self):
        order = np.random.default_rng(5).permutation(20_000)
        assert groups_of_pairs(20_000, order[:-1], order[1:]) == [
            list(range(20_000))
        ]

    def test_members_are_python_ints(self):
        rows, cols = _pairs([(0, 1)])
        (group,) = groups_of_pairs(2, rows, cols)
        assert all(type(member) is int for member in group)


class TestGroupsOfLabels:
    def test_empty(self):
        assert groups_of_labels(np.array([], dtype=np.intp)) == []

    def test_noise_labels_dropped(self):
        labels = np.array([-1, 0, -1, 0, -1], dtype=np.intp)
        assert groups_of_labels(labels) == [[1, 3]]
        assert groups_of_labels(np.full(4, -1), min_size=1) == []

    def test_groups_ordered_by_smallest_member(self):
        labels = np.array([2, 0, 2, 1, 0, 1], dtype=np.intp)
        assert groups_of_labels(labels) == [[0, 2], [1, 4], [3, 5]]

    def test_min_size(self):
        labels = np.array([5, 1, 5, 7, 5, 1], dtype=np.intp)
        assert groups_of_labels(labels, min_size=1) == [[0, 2, 4], [1, 5], [3]]
        assert groups_of_labels(labels) == [[0, 2, 4], [1, 5]]
        assert groups_of_labels(labels, min_size=3) == [[0, 2, 4]]

    def test_all_singletons(self):
        labels = np.arange(6)[::-1]
        assert groups_of_labels(labels) == []
        assert groups_of_labels(labels, min_size=1) == [[i] for i in range(6)]


def _oracle_of_pairs(n: int, pairs, min_size: int) -> list[list[int]]:
    reference = DisjointSet(n)
    for a, b in pairs:
        reference.union(a, b)
    return reference.groups(min_size=min_size)


class TestAgainstUnionFind:
    @given(
        st.integers(min_value=0, max_value=40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=max(n - 1, 0)),
                        st.integers(min_value=0, max_value=max(n - 1, 0)),
                    ),
                    max_size=60 if n else 0,
                ),
            )
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_pairs_match_union_find(self, case, min_size):
        n, pairs = case
        rows, cols = _pairs(pairs)
        assert groups_of_pairs(n, rows, cols, min_size) == _oracle_of_pairs(
            n, pairs, min_size
        )

    @given(
        st.lists(st.integers(min_value=-1, max_value=12), max_size=50),
        st.integers(min_value=1, max_value=4),
    )
    def test_labels_match_union_find(self, labels, min_size):
        first_of: dict[int, int] = {}
        pairs = []
        for row, label in enumerate(labels):
            if label >= 0:
                pairs.append((first_of.setdefault(label, row), row))
        expected = [
            group
            for group in _oracle_of_pairs(len(labels), pairs, min_size)
            if labels[group[0]] >= 0
        ]
        assert groups_of_labels(np.array(labels, dtype=np.intp), min_size) == (
            expected
        )
