"""Small shared utilities: the canonical grouping primitive."""

from repro.util.groups import groups_of_labels, groups_of_pairs

__all__ = ["groups_of_labels", "groups_of_pairs"]
