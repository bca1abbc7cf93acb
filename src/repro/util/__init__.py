"""Small shared utilities: the canonical grouping primitive."""

from repro.util.groups import flatten_groups, groups_of_labels, groups_of_pairs

__all__ = ["flatten_groups", "groups_of_labels", "groups_of_pairs"]
