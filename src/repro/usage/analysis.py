"""Dormancy analysis: what the log says nobody needs.

Attribution is inherently ambiguous — a user holding a permission
through two roles exercises *both* memberships when using it.  The
analysis therefore gives every assignment the benefit of the doubt:

* a **membership** (role, user) is *exercised* when the user used at
  least one permission the role grants — even if another role also
  grants it;
* a **grant** (role, permission) is *exercised* when at least one member
  of the role used the permission — through any path;
* a **role is dormant** when none of its memberships is exercised.

This errs maximally toward keeping access, so everything flagged is
genuinely unused under every possible attribution — the only defensible
bar for least-privilege suggestions from logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.state import RbacState
from repro.usage.log import AccessLog


@dataclass(frozen=True)
class UsageSummary:
    """Counts for one analysis run (shapes the text report)."""

    n_events: int
    n_memberships: int
    n_dormant_memberships: int
    n_grants: int
    n_unused_grants: int
    n_roles: int
    n_dormant_roles: int
    n_unknown_event_pairs: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "events": self.n_events,
            "memberships": self.n_memberships,
            "dormant_memberships": self.n_dormant_memberships,
            "grants": self.n_grants,
            "unused_grants": self.n_unused_grants,
            "roles": self.n_roles,
            "dormant_roles": self.n_dormant_roles,
            "unknown_event_pairs": self.n_unknown_event_pairs,
        }


@dataclass
class UsageAnalysis:
    """Joins a state with a log and answers dormancy queries.

    All queries are computed eagerly at construction (one pass over the
    log plus one over the assignments) and returned in deterministic
    order.
    """

    state: RbacState
    log: AccessLog
    dormant_memberships: list[tuple[str, str]] = field(init=False)
    unused_grants: list[tuple[str, str]] = field(init=False)
    dormant_roles: list[str] = field(init=False)
    unknown_event_pairs: list[tuple[str, str]] = field(init=False)

    def __post_init__(self) -> None:
        used = self.log.used_pairs()

        # Events that reference access the state does not actually grant
        # (stale log, or — worse — access outside RBAC).  Surfaced, not
        # silently dropped.
        granted = self.state.effective_permission_map()
        unknown = []
        for user_id, permission_id in sorted(used):
            if permission_id not in granted.get(user_id, ()):
                unknown.append((user_id, permission_id))
        self.unknown_event_pairs = unknown

        used_by_user: dict[str, set[str]] = {}
        for user_id, permission_id in used:
            used_by_user.setdefault(user_id, set()).add(permission_id)

        dormant_memberships: list[tuple[str, str]] = []
        unused_grants: list[tuple[str, str]] = []
        dormant_roles: list[str] = []
        for role_id in self.state.role_ids():
            grants = self.state.permissions_of_role(role_id)
            members = self.state.users_of_role(role_id)

            role_exercised = False
            for user_id in sorted(members):
                if used_by_user.get(user_id, set()) & grants:
                    role_exercised = True
                else:
                    dormant_memberships.append((role_id, user_id))
            if members and not role_exercised:
                dormant_roles.append(role_id)

            used_by_members: set[str] = set()
            for user_id in members:
                used_by_members.update(used_by_user.get(user_id, set()))
            for permission_id in sorted(grants):
                if permission_id not in used_by_members:
                    unused_grants.append((role_id, permission_id))

        self.dormant_memberships = dormant_memberships
        self.unused_grants = unused_grants
        self.dormant_roles = dormant_roles

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> UsageSummary:
        return UsageSummary(
            n_events=len(self.log),
            n_memberships=self.state.n_user_assignments,
            n_dormant_memberships=len(self.dormant_memberships),
            n_grants=self.state.n_permission_assignments,
            n_unused_grants=len(self.unused_grants),
            n_roles=self.state.n_roles,
            n_dormant_roles=len(self.dormant_roles),
            n_unknown_event_pairs=len(self.unknown_event_pairs),
        )

    def to_text(self, max_listed: int = 10) -> str:
        summary = self.summary()
        lines = [
            "usage analysis",
            "==============",
            f"events observed:        {summary.n_events}",
            f"dormant memberships:    {summary.n_dormant_memberships} "
            f"of {summary.n_memberships}",
            f"never-exercised grants: {summary.n_unused_grants} "
            f"of {summary.n_grants}",
            f"dormant roles:          {summary.n_dormant_roles} "
            f"of {summary.n_roles}",
        ]
        if summary.n_unknown_event_pairs:
            lines.append(
                f"!! events outside granted access: "
                f"{summary.n_unknown_event_pairs} distinct pairs"
            )
        if self.dormant_roles:
            shown = self.dormant_roles[:max_listed]
            lines.append("")
            lines.append("dormant roles (no member used any grant):")
            for role_id in shown:
                lines.append(f"  - {role_id}")
            if len(self.dormant_roles) > max_listed:
                lines.append(
                    f"  … and {len(self.dormant_roles) - max_listed} more"
                )
        return "\n".join(lines)
