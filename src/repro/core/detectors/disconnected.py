"""Type 2 — roles disconnected on one side (§III-A.2).

A role that has permissions but no users (paper example: R03) or users
but no permissions (R02).  Roles with neither are type 1 (standalone) and
are deliberately excluded here so the two detectors never double-report.
"""

from __future__ import annotations

from repro.core.detectors.base import AnalysisContext, Detector
from repro.core.taxonomy import (
    ROLES_WITHOUT_PERMISSIONS,
    ROLES_WITHOUT_USERS,
    Bucket,
    Findings,
)


class DisconnectedRoleDetector(Detector):
    """Finds roles missing all users, or missing all permissions."""

    name = "disconnected_roles"

    def detect(self, context: AnalysisContext) -> Findings:
        user_sums = context.ruam.row_sums
        permission_sums = context.rpam.row_sums
        no_users = (user_sums == 0) & (permission_sums > 0)
        no_permissions = (permission_sums == 0) & (user_sums > 0)
        return Findings(
            [
                Bucket(
                    ROLES_WITHOUT_USERS,
                    context.ruam.rows_where(no_users),
                    permission_sums[no_users].tolist(),
                ),
                Bucket(
                    ROLES_WITHOUT_PERMISSIONS,
                    context.rpam.rows_where(no_permissions),
                    user_sums[no_permissions].tolist(),
                ),
            ]
        )
