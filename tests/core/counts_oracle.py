"""Sweep counts: the reference the auditor's running tallies are tested
against.

:meth:`repro.core.incremental.IncrementalAuditor.counts` reads tallies
that each mutation keeps current.  This is the sweep it replaced: it
walks every role's set sizes and rebuilds the duplicate groups and
similarity components of both axes.  It is O(state) per call but
obviously right, so ``tests/core/test_incremental_tallies.py`` compares
the tallies against it after random mutation sequences.
"""

from __future__ import annotations

from repro.core import Axis
from repro.core.incremental import IncrementalAuditor


def sweep_counts(auditor: IncrementalAuditor) -> dict[str, int]:
    """``Report.counts()`` of the auditor's state, by full sweep."""
    state = auditor.state
    sizes = [
        (len(state.users_of_role(role_id)),
         len(state.permissions_of_role(role_id)))
        for role_id in state.role_ids()
    ]
    return {
        "standalone_users": sum(
            1 for user_id in state.user_ids()
            if not state.roles_of_user(user_id)
        ),
        "standalone_permissions": sum(
            1 for permission_id in state.permission_ids()
            if not state.roles_of_permission(permission_id)
        ),
        "standalone_roles": sum(1 for u, p in sizes if u == 0 and p == 0),
        "roles_without_users": sum(1 for u, p in sizes if u == 0 and p > 0),
        "roles_without_permissions": sum(
            1 for u, p in sizes if p == 0 and u > 0
        ),
        "single_user_roles": sum(1 for u, _ in sizes if u == 1),
        "single_permission_roles": sum(1 for _, p in sizes if p == 1),
        "roles_same_users": sum(
            len(group) for group in auditor.duplicate_groups(Axis.USERS)
        ),
        "roles_same_permissions": sum(
            len(group)
            for group in auditor.duplicate_groups(Axis.PERMISSIONS)
        ),
        # One representative per distinct content, so a group's length
        # is its component's size.
        "roles_similar_users": sum(
            len(group) for group in auditor.similar_groups(Axis.USERS)
        ),
        "roles_similar_permissions": sum(
            len(group) for group in auditor.similar_groups(Axis.PERMISSIONS)
        ),
    }
