"""Type 4 — roles sharing exactly the same users or permissions (§III-A.4).

The paper's headline consolidation target: every group of n identical
roles can in principle be collapsed to one, removing n-1 roles.  The
detector runs a group finder with ``max_differences = 0`` on each axis.
"""

from __future__ import annotations

import numpy as np

from repro.core.detectors.base import AnalysisContext, Detector
from repro.core.entities import EntityKind
from repro.core.grouping import GroupFinder, make_group_finder
from repro.core.matrices import AssignmentMatrix
from repro.core.taxonomy import (
    DEFAULT_SEVERITY,
    Axis,
    Finding,
    InefficiencyType,
    RoleGroup,
)
from repro.obs import current_recorder


class DuplicateRolesDetector(Detector):
    """Finds groups of roles with identical user or permission sets.

    Parameters
    ----------
    finder:
        Group finder name (``"cooccurrence"``, ``"dbscan"``, ``"hnsw"``,
        ``"hash"``) or a pre-built :class:`GroupFinder`.  Defaults to the
        paper's custom co-occurrence algorithm.
    axes:
        Which axes to analyse; both by default.
    """

    name = "duplicate_roles"

    def __init__(
        self,
        finder: str | GroupFinder = "cooccurrence",
        axes: tuple[Axis, ...] = (Axis.USERS, Axis.PERMISSIONS),
    ) -> None:
        self._finder = (
            finder if isinstance(finder, GroupFinder) else make_group_finder(finder)
        )
        self._axes = tuple(axes)

    def detect(self, context: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        for axis in self._axes:
            matrix = context.ruam if axis is Axis.USERS else context.rpam
            findings.extend(
                self._detect_axis(matrix, context.workspace.axis(axis), axis)
            )
        return findings

    def warm(self, context: AnalysisContext) -> None:
        """Register the k = 0 scan need on every analysed axis."""
        for axis in self._axes:
            workspace = context.workspace.axis(axis)
            if workspace.n_rows:
                self._finder.warm(workspace, 0)

    def _detect_axis(
        self, matrix: AssignmentMatrix, workspace, axis: Axis
    ) -> list[Finding]:
        severity = DEFAULT_SEVERITY[InefficiencyType.DUPLICATE_ROLES]
        noun = axis.value  # "users" / "permissions"
        findings = []
        with current_recorder().span(
            f"axis:{axis.value}", detector=self.name
        ) as span:
            if workspace.n_rows:
                index_groups = self._finder.find_groups_in(workspace, 0)
            else:
                index_groups = []
            groups = matrix.groups_to_ids(
                [
                    np.take(workspace.original, group).tolist()
                    for group in index_groups
                ]
            )
            span.add("duplicates.groups", len(groups))
            span.add(
                "duplicates.roles_grouped", sum(len(g) for g in groups)
            )
        for index_group, role_ids in zip(index_groups, groups):
            group = RoleGroup(
                role_ids=tuple(role_ids), axis=axis, max_differences=0
            )
            # Every member of the group has the same row content; the
            # shared-element count is the first member's norm, read from
            # the workspace instead of re-slicing the CSR per group.
            shared_count = int(workspace.norms[index_group[0]])
            findings.append(
                Finding(
                    type=InefficiencyType.DUPLICATE_ROLES,
                    entity_kind=EntityKind.ROLE,
                    entity_ids=tuple(role_ids),
                    severity=severity,
                    message=(
                        f"{len(role_ids)} roles share the same "
                        f"{shared_count} {noun}: {', '.join(role_ids[:5])}"
                        + ("…" if len(role_ids) > 5 else "")
                    ),
                    axis=axis,
                    group=group,
                    details={
                        "group_size": len(role_ids),
                        "shared_count": shared_count,
                        "redundant_roles": group.redundant_count,
                    },
                )
            )
        return findings
