"""Type 5 — roles sharing a similar set of users/permissions (§III-A.5).

"Similar" means the sets differ in at most ``max_differences`` elements
(Hamming distance between row vectors), a threshold chosen by the
administrator; the paper's real-data experiment uses 1 ("all but one").

By default exact duplicates are collapsed to a single representative
before similarity grouping, so the reported groups describe *distinct*
role definitions that are close — matching how the paper reports same-set
roles (type 4) and similar-set roles (type 5) as separate counts.
"""

from __future__ import annotations

import numpy as np

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
from repro.exceptions import ConfigurationError
from repro.obs import current_recorder
from repro.util import flatten_groups


class SimilarRolesDetector(Detector):
    """Finds groups of roles whose sets differ by at most k elements.

    Parameters
    ----------
    max_differences:
        The administrator threshold k (must be >= 1; use
        :class:`DuplicateRolesDetector` for k = 0).
    finder:
        Group finder name or instance; default is the paper's custom
        co-occurrence algorithm.
    axes:
        Which axes to analyse; both by default.
    collapse_duplicates:
        Collapse identical rows to one representative before grouping
        (default True, see module docstring).
    """

    name = "similar_roles"

    def __init__(
        self,
        max_differences: int = 1,
        finder: str | GroupFinder = "cooccurrence",
        axes: tuple[Axis, ...] = (Axis.USERS, Axis.PERMISSIONS),
        collapse_duplicates: bool = True,
    ) -> None:
        if max_differences < 1:
            raise ConfigurationError(
                "max_differences must be >= 1 for similarity detection; "
                "use DuplicateRolesDetector for exact duplicates"
            )
        self._max_differences = int(max_differences)
        self._finder = (
            finder if isinstance(finder, GroupFinder) else make_group_finder(finder)
        )
        self._axes = tuple(axes)
        self._collapse_duplicates = collapse_duplicates

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
        """Register the finder's needs on the (collapsed) view per axis."""
        for axis in self._axes:
            workspace = context.workspace.axis(axis)
            if workspace.n_rows == 0:
                continue
            view = (
                workspace.collapsed()
                if self._collapse_duplicates
                else workspace
            )
            self._finder.warm(view, self._max_differences)

    def _detect_axis(
        self, matrix: AssignmentMatrix, workspace, axis: Axis
    ) -> Groups:
        spec = GroupSpec(
            InefficiencyType.SIMILAR_ROLES, axis, self._max_differences
        )
        with current_recorder().span(
            f"axis:{axis.value}", detector=self.name
        ) as span:
            if workspace.n_rows == 0:
                return Groups(spec, [], [0], [])

            if self._collapse_duplicates:
                view = workspace.collapsed()
                class_sizes = view.class_sizes
                span.add(
                    "similar.collapsed_rows",
                    int(workspace.n_rows - view.n_rows),
                )
            else:
                view = workspace
                class_sizes = np.ones(workspace.n_rows, dtype=np.int64)
            to_original = view.original
            span.add("similar.rows_analysed", int(view.n_rows))

            groups = self._finder.find_groups_in(
                view, self._max_differences
            )
            span.add("similar.groups", len(groups))
            members, bounds = flatten_groups(groups)
            # The roles a group represents: its members' class sizes.
            represented = np.add.reduceat(class_sizes[members], bounds[:-1])
            return Groups(
                spec,
                matrix.row_ids_at(to_original[members]),
                bounds.tolist(),
                represented.tolist(),
            )
