"""The paper's taxonomy of RBAC data inefficiencies (§III-A).

Five types are defined; types that have a "users or permissions" flavour
carry an :class:`Axis` discriminating which side was analysed.  Detection
output is a list of :class:`Finding` records, each tying an inefficiency
type to the affected entities and a suggested (never auto-applied)
remediation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Any, Iterator, Mapping, Sequence

from repro.core.entities import EntityKind


class InefficiencyType(str, Enum):
    """The five inefficiency groups of the paper's taxonomy."""

    #: Type 1 — node with no edges at all (user, permission, or role).
    STANDALONE_NODE = "standalone_node"
    #: Type 2 — role missing all users or all permissions (but not both).
    DISCONNECTED_ROLE = "disconnected_role"
    #: Type 3 — role with exactly one user or exactly one permission.
    SINGLE_ASSIGNMENT_ROLE = "single_assignment_role"
    #: Type 4 — group of roles with identical user/permission sets.
    DUPLICATE_ROLES = "duplicate_roles"
    #: Type 5 — group of roles whose sets differ by at most k elements.
    SIMILAR_ROLES = "similar_roles"
    #: Extension (not in the paper's taxonomy; implements its §IV-B
    #: future work): a role whose users AND permissions are both subsets
    #: of another role's — removable without changing anyone's access.
    SHADOWED_ROLE = "shadowed_role"


class Axis(str, Enum):
    """Which side of the tripartite graph a role-level finding concerns."""

    USERS = "users"
    PERMISSIONS = "permissions"

    @property
    def entity_kind(self) -> EntityKind:
        if self is Axis.USERS:
            return EntityKind.USER
        return EntityKind.PERMISSION


class Severity(str, Enum):
    """Coarse triage hint for administrators reviewing findings.

    The paper stresses that none of the inefficiencies may be fixed
    automatically; severity only orders the review queue.
    """

    INFO = "info"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK: Mapping[Severity, int] = {
    Severity.INFO: 0,
    Severity.LOW: 1,
    Severity.MEDIUM: 2,
    Severity.HIGH: 3,
}

#: Default severity per inefficiency type.  Duplicate roles rank highest:
#: they bloat every authorisation check and are the paper's headline
#: consolidation opportunity.
DEFAULT_SEVERITY: Mapping[InefficiencyType, Severity] = {
    InefficiencyType.STANDALONE_NODE: Severity.LOW,
    InefficiencyType.DISCONNECTED_ROLE: Severity.MEDIUM,
    InefficiencyType.SINGLE_ASSIGNMENT_ROLE: Severity.INFO,
    InefficiencyType.DUPLICATE_ROLES: Severity.HIGH,
    InefficiencyType.SIMILAR_ROLES: Severity.MEDIUM,
    InefficiencyType.SHADOWED_ROLE: Severity.MEDIUM,
}


@dataclass(frozen=True, slots=True)
class RoleGroup:
    """A set of roles sharing the same or similar users/permissions.

    ``max_differences`` is 0 for exact duplicates (type 4) and the
    administrator-chosen threshold k for similar roles (type 5).
    """

    role_ids: tuple[str, ...]
    axis: Axis
    max_differences: int = 0

    def __post_init__(self) -> None:
        if len(self.role_ids) < 2:
            raise ValueError("a role group needs at least two members")
        if self.max_differences < 0:
            raise ValueError("max_differences must be >= 0")
        object.__setattr__(self, "role_ids", tuple(self.role_ids))

    @property
    def size(self) -> int:
        return len(self.role_ids)

    @property
    def redundant_count(self) -> int:
        """Roles that could be removed if the group were consolidated.

        Keeping one representative per group removes ``size - 1`` roles —
        the quantity behind the paper's "~10% of all roles" estimate.
        """
        return self.size - 1


class _NoDetails(Mapping[str, Any]):
    """The empty, immutable ``details`` all detail-less findings share.

    Most findings (every standalone node) carry no details; sharing one
    value spares each an empty dict of its own.  It compares equal to
    ``{}``, prints as ``{}`` and pickles (or copies) to itself.
    """

    __slots__ = ()

    def __getitem__(self, key: str) -> Any:
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"

    def __reduce__(self) -> str:
        return "_NO_DETAILS"


_NO_DETAILS = _NoDetails()


@dataclass(frozen=True, slots=True)
class Finding:
    """One detected inefficiency instance.

    ``entity_ids`` lists the affected entities: the single node for types
    1-3 or every member role for types 4-5.  ``details`` carries
    type-specific context (axis, thresholds, group structure).
    """

    type: InefficiencyType
    entity_kind: EntityKind
    entity_ids: tuple[str, ...]
    severity: Severity
    message: str
    axis: Axis | None = None
    group: RoleGroup | None = None
    details: Mapping[str, Any] = field(default_factory=lambda: _NO_DETAILS)

    def __post_init__(self) -> None:
        if not self.entity_ids:
            raise ValueError("a finding must reference at least one entity")
        object.__setattr__(self, "entity_ids", tuple(self.entity_ids))
        if self.details is not _NO_DETAILS:
            object.__setattr__(
                self,
                "details",
                dict(self.details) if self.details else _NO_DETAILS,
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation."""
        payload: dict[str, Any] = {
            "type": self.type.value,
            "entity_kind": self.entity_kind.value,
            "entity_ids": list(self.entity_ids),
            "severity": self.severity.value,
            "message": self.message,
            "details": (
                {} if self.details is _NO_DETAILS else dict(self.details)
            ),
        }
        if self.axis is not None:
            payload["axis"] = self.axis.value
        if self.group is not None:
            payload["group"] = {
                "role_ids": list(self.group.role_ids),
                "axis": self.group.axis.value,
                "max_differences": self.group.max_differences,
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Finding":
        """Rebuild a finding from its :meth:`to_dict` payload.

        Round-trip inverse (``Finding.from_dict(f.to_dict()) == f``):
        lets reports cross process boundaries as JSON — the job plane's
        workers ship serialised reports back to the service, which needs
        real :class:`Finding` objects again for diffing and rendering.
        """
        group_payload = payload.get("group")
        group = (
            RoleGroup(
                role_ids=tuple(group_payload["role_ids"]),
                axis=Axis(group_payload["axis"]),
                max_differences=group_payload["max_differences"],
            )
            if group_payload is not None
            else None
        )
        axis_value = payload.get("axis")
        return cls(
            type=InefficiencyType(payload["type"]),
            entity_kind=EntityKind(payload["entity_kind"]),
            entity_ids=tuple(payload["entity_ids"]),
            severity=Severity(payload["severity"]),
            message=payload["message"],
            axis=Axis(axis_value) if axis_value is not None else None,
            group=group,
            details=dict(payload.get("details", {})),
        )


def sort_findings(findings: Sequence[Finding]) -> list[Finding]:
    """Order findings for review: highest severity first, then by type and
    first affected entity id (stable and deterministic)."""
    # One stable pass per key, least significant first: the order of a
    # sort on (-rank, type, ids) without a key tuple per finding.
    ordered = sorted(findings, key=attrgetter("entity_ids"))
    ordered.sort(key=lambda f: f.type.value)
    ordered.sort(key=lambda f: -f.severity.rank)
    return ordered
