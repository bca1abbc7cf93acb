"""Type 4 — roles sharing exactly the same users or permissions (§III-A.4).

The paper's headline consolidation target: every group of n identical
roles can in principle be collapsed to one, removing n-1 roles.  The
detector runs a group finder with ``max_differences = 0`` on each axis.
"""

from __future__ import annotations

from repro.core.detectors.base import AnalysisContext, Detector
from repro.core.grouping import GroupFinder, make_group_finder
from repro.core.matrices import AssignmentMatrix
from repro.core.taxonomy import (
    Axis,
    Findings,
    GroupSpec,
    Groups,
    InefficiencyType,
)
from repro.obs import ARTIFACT_HITS, current_recorder
from repro.util import flatten_groups


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

    def detect(self, context: AnalysisContext) -> Findings:
        return Findings(
            self._detect_axis(
                context.ruam if axis is Axis.USERS else context.rpam,
                context.workspace.axis(axis),
                axis,
            )
            for axis in self._axes
        )

    def warm(self, context: AnalysisContext) -> None:
        """Register the k = 0 scan need on every analysed axis."""
        for axis in self._axes:
            workspace = context.workspace.axis(axis)
            if workspace.n_rows:
                self._finder.warm(workspace, 0)

    def _detect_axis(
        self, matrix: AssignmentMatrix, workspace, axis: Axis
    ) -> Groups:
        with current_recorder().span(
            f"axis:{axis.value}", detector=self.name
        ) as span:
            if workspace.n_rows:
                index_groups = self._finder.find_groups_in(workspace, 0)
            else:
                index_groups = []
            members, bounds = flatten_groups(index_groups)
            span.add("duplicates.groups", len(index_groups))
            span.add("duplicates.roles_grouped", len(members))
            spec = GroupSpec(InefficiencyType.DUPLICATE_ROLES, axis)
            if not index_groups:
                return Groups(spec, [], [0], [])
            # One read of ``original`` and ``norms`` serves every group.
            # The memo counts a hit of each per group, as it did when
            # they were read group by group, so the run's counters (which
            # the report carries) keep their values.
            span.add(ARTIFACT_HITS, 2 * len(index_groups) - 2)
            # Every member of a group has the same row content; the
            # shared-element count is the first member's norm.
            return Groups(
                spec,
                matrix.row_ids_at(workspace.original[members]),
                bounds.tolist(),
                workspace.norms[members[bounds[:-1]]].tolist(),
            )
