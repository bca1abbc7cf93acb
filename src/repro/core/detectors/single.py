"""Type 3 — roles with a single user or a single permission (§III-A.3).

Likely — but not certainly — a sign of inefficiency: the paper notes a
CEO-only role is legitimate, which is why these findings carry the lowest
severity and, like everything else, are never auto-fixed.
"""

from __future__ import annotations

from repro.core.detectors.base import AnalysisContext, Detector
from repro.core.taxonomy import (
    SINGLE_PERMISSION_ROLES,
    SINGLE_USER_ROLES,
    Bucket,
    Findings,
)


class SingleAssignmentDetector(Detector):
    """Finds roles whose row sum is exactly 1 in RUAM or RPAM."""

    name = "single_assignment_roles"

    def detect(self, context: AnalysisContext) -> Findings:
        return Findings(
            [
                Bucket(SINGLE_USER_ROLES, context.ruam.rows_with_sum(1)),
                Bucket(SINGLE_PERMISSION_ROLES, context.rpam.rows_with_sum(1)),
            ]
        )
