"""The paper's taxonomy of RBAC data inefficiencies (§III-A).

Five types are defined; types that have a "users or permissions" flavour
carry an :class:`Axis` discriminating which side was analysed.  A
:class:`Finding` ties an inefficiency type to the affected entities and
a suggested (never auto-applied) remediation.

A report holds its findings as :class:`Findings`: an ordered list of
parts, each written to JSON straight from its columns.  The
single-entity findings of types 1-3 come in a :class:`Bucket` per
``(type, entity_kind, axis)``: a column of entity ids and, where the
type has one, a column of detail counts.  The role groups of types 4-5
come in a :class:`Groups` per ``(type, axis)``: the member role ids as
one flat column with group bounds, and one count per group.  Only the
shadowed-role extension (and a report rebuilt from its payload) keeps
:class:`Finding` records.
"""

from __future__ import annotations

import json
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.core.entities import EntityKind
from repro.util.jsontext import plain as _plain


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
        :meth:`Report.from_payload <repro.core.report.Report.from_payload>`
        rebuilds a serialised report's findings with it.
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


def _literal(value: str) -> str:
    """``value`` as JSON text, ready to stand in a ``%`` template."""
    return json.dumps(value).replace("%", "%%")


def _object_text(members: Mapping[str, str]) -> str:
    """A JSON object from its members' texts, keys sorted."""
    return "{%s}" % ", ".join(
        f"{_literal(key)}: {members[key]}" for key in sorted(members)
    )


@dataclass(frozen=True)
class BucketSpec:
    """One bucket of single-entity findings, ``(type, entity_kind, axis)``,
    and the text its findings carry.

    ``template`` is the message, formatted with the entity id (``{0!r}``)
    and, for a bucket with a ``detail``, the detail count (``{1}``),
    which the finding also carries as ``details[detail]``.  The severity
    is the type's default.
    """

    type: InefficiencyType
    entity_kind: EntityKind
    axis: Axis | None
    template: str
    detail: str | None = None

    @property
    def severity(self) -> Severity:
        return DEFAULT_SEVERITY[self.type]

    def finding(self, entity_id: str, detail: int | None = None) -> Finding:
        """The finding of one row."""
        return Finding(
            type=self.type,
            entity_kind=self.entity_kind,
            entity_ids=(entity_id,),
            severity=self.severity,
            message=self.template.format(entity_id, detail),
            axis=self.axis,
            details={self.detail: detail} if self.detail else _NO_DETAILS,
        )

    def record(self, entity_id: str, detail: int | None = None) -> dict:
        """``Finding.to_dict()`` of one row, without the finding."""
        type_, entity_kind, severity, axis = self._values
        record = {
            "type": type_,
            "entity_kind": entity_kind,
            "entity_ids": [entity_id],
            "severity": severity,
            "message": self.template.format(entity_id, detail),
            "details": {self.detail: detail} if self.detail else {},
        }
        if axis is not None:
            record["axis"] = axis
        return record

    @cached_property
    def _values(self) -> tuple[str, str, str, str | None]:
        """The enum values a record carries, looked up once."""
        return (
            self.type.value,
            self.entity_kind.value,
            self.severity.value,
            self.axis.value if self.axis is not None else None,
        )

    @cached_property
    def text(self) -> str:
        """One finding as ``json.dumps(record, sort_keys=True)`` writes it,
        with ``%`` slots for the detail (when there is one), the quoted
        entity id and the quoted message, in that order."""
        return self._row_text("%d", "[%s]", "%s")

    @cached_property
    def plain_text(self) -> list[str] | None:
        """:attr:`text` for a row whose id is plain (:func:`_plain`), with
        the id and the message inside the JSON literal, cut at the
        slots left: the id twice or, with a detail, the detail, the id
        twice and the detail.  ``None`` when the message template's own
        text is not plain or holds other slots."""
        pieces = re.split(r"(\{0!r\}|\{1\})", self.template)
        literals = pieces[0::2]
        slots = ["{0!r}", "{1}"] if self.detail else ["{0!r}"]
        if (
            pieces[1::2] != slots
            or not _plain(literals)
            or re.search(r"[{}]", "".join(literals))
        ):
            return None
        # JSON text never holds a raw NUL, so NULs mark the slots.
        message = "".join(pieces).replace("{0!r}", "'\0'")
        message = message.replace("{1}", "\0")
        return self._row_text("\0", '["\0"]', f'"{message}"').split("\0")

    def _row_text(self, detail: str, entity_ids: str, message: str) -> str:
        """The sorted-key JSON object of a row, with the given texts for
        its detail count and ``entity_ids`` and ``message`` members."""
        members = {
            "details": (
                "{%s: %s}" % (json.dumps(self.detail), detail)
                if self.detail
                else "{}"
            ),
            "entity_ids": entity_ids,
            "entity_kind": json.dumps(self.entity_kind.value),
            "message": message,
            "severity": json.dumps(self.severity.value),
            "type": json.dumps(self.type.value),
        }
        if self.axis is not None:
            members["axis"] = json.dumps(self.axis.value)
        return _object_text(members)


STANDALONE_USERS = BucketSpec(
    InefficiencyType.STANDALONE_NODE,
    EntityKind.USER,
    None,
    "user {0!r} is not assigned to any role",
)
STANDALONE_PERMISSIONS = BucketSpec(
    InefficiencyType.STANDALONE_NODE,
    EntityKind.PERMISSION,
    None,
    "permission {0!r} is not linked to any role",
)
STANDALONE_ROLES = BucketSpec(
    InefficiencyType.STANDALONE_NODE,
    EntityKind.ROLE,
    None,
    "role {0!r} has neither users nor permissions",
)
ROLES_WITHOUT_USERS = BucketSpec(
    InefficiencyType.DISCONNECTED_ROLE,
    EntityKind.ROLE,
    Axis.USERS,
    "role {0!r} has no users (but {1} permissions)",
    detail="n_permissions",
)
ROLES_WITHOUT_PERMISSIONS = BucketSpec(
    InefficiencyType.DISCONNECTED_ROLE,
    EntityKind.ROLE,
    Axis.PERMISSIONS,
    "role {0!r} has no permissions (but {1} users)",
    detail="n_users",
)
SINGLE_USER_ROLES = BucketSpec(
    InefficiencyType.SINGLE_ASSIGNMENT_ROLE,
    EntityKind.ROLE,
    Axis.USERS,
    "role {0!r} has exactly one user",
)
SINGLE_PERMISSION_ROLES = BucketSpec(
    InefficiencyType.SINGLE_ASSIGNMENT_ROLE,
    EntityKind.ROLE,
    Axis.PERMISSIONS,
    "role {0!r} has exactly one permission",
)

class Bucket:
    """The findings of one :class:`BucketSpec`, as columns: the entity
    ids and, when the spec has a detail, its count per row."""

    __slots__ = ("spec", "ids", "details")

    def __init__(
        self,
        spec: BucketSpec,
        ids: list[str],
        details: list[int] | None = None,
    ) -> None:
        if (details is None) != (spec.detail is None):
            raise ValueError(
                f"bucket {spec.template!r} takes "
                f"{'a' if spec.detail else 'no'} details column"
            )
        if details is not None and len(details) != len(ids):
            raise ValueError("the ids and details columns differ in length")
        self.spec = spec
        self.ids = ids
        self.details = details

    def __len__(self) -> int:
        return len(self.ids)

    def _columns(self) -> list[list]:
        if self.details is None:
            return [self.ids]
        return [self.ids, self.details]

    def entity_ids(self) -> list[tuple[str]]:
        """Each row's ``Finding.entity_ids``."""
        return list(zip(self.ids))

    def finding(self, row: int) -> Finding:
        return self.spec.finding(*(column[row] for column in self._columns()))

    def findings(self) -> list[Finding]:
        return list(map(self.spec.finding, *self._columns()))

    def dicts(self) -> list[dict]:
        return list(map(self.spec.record, *self._columns()))

    def texts(self) -> list[str]:
        """Each row's JSON text, as ``json.dumps(record, sort_keys=True)``
        writes it: :attr:`BucketSpec.plain_text` joined with the row's
        values (one f-string) when every id is plain, else
        :attr:`BucketSpec.text` with the id and message quoted by the
        JSON module's string encoder."""
        pieces = self.spec.plain_text
        if pieces is not None and _plain(self.ids):
            if self.details is None:
                a, b, c = pieces
                return [f"{a}{i}{b}{i}{c}" for i in self.ids]
            a, b, c, d, e = pieces
            return [
                f"{a}{n:d}{b}{i}{c}{i}{d}{n:d}{e}"
                for i, n in zip(self.ids, self.details)
            ]
        columns = self._columns()
        messages = map(self.spec.template.format, *columns)
        slots = columns[1:] + [map(_quote, self.ids), map(_quote, messages)]
        return list(map(self.spec.text.__mod__, zip(*slots)))


@dataclass(frozen=True)
class GroupSpec:
    """The role groups one detector finds on one axis: duplicate roles
    (type 4, ``max_differences`` 0) or similar roles (type 5, the
    threshold k), and the text they carry.

    A group's count is the ``shared_count`` of a duplicate group and
    the ``represented_roles`` of a similar one.  The message names the
    axis (its noun) and the first five members.
    """

    type: InefficiencyType
    axis: Axis
    max_differences: int = 0

    @property
    def entity_kind(self) -> EntityKind:
        return EntityKind.ROLE

    @property
    def severity(self) -> Severity:
        return DEFAULT_SEVERITY[self.type]

    @cached_property
    def template(self) -> str:
        """The message, formatted with the group size (``{0}``), its
        count (``{1}``) and its first members (``{2}``)."""
        noun = self.axis.value
        if self.type is InefficiencyType.DUPLICATE_ROLES:
            return f"{{0}} roles share the same {{1}} {noun}: {{2}}"
        return (
            f"{{0}} roles have {noun} differing by at most "
            f"{self.max_differences}: {{2}}"
        )

    def message(self, role_ids: Sequence[str], count: int) -> str:
        shown = ", ".join(role_ids[:5]) + ("…" if len(role_ids) > 5 else "")
        return self.template.format(len(role_ids), count, shown)

    def details(self, size: int, count: int) -> dict[str, int]:
        if self.type is InefficiencyType.DUPLICATE_ROLES:
            return {
                "group_size": size,
                "shared_count": count,
                "redundant_roles": size - 1,
            }
        return {
            "group_size": size,
            "max_differences": self.max_differences,
            "represented_roles": count,
        }

    def finding(self, role_ids: tuple[str, ...], count: int) -> Finding:
        """The finding of one group."""
        return Finding(
            type=self.type,
            entity_kind=EntityKind.ROLE,
            entity_ids=role_ids,
            severity=self.severity,
            message=self.message(role_ids, count),
            axis=self.axis,
            group=RoleGroup(role_ids, self.axis, self.max_differences),
            details=self.details(len(role_ids), count),
        )

    def record(self, role_ids: Sequence[str], count: int) -> dict:
        """``Finding.to_dict()`` of one group, without the finding."""
        type_, entity_kind, severity, axis = self._values
        return {
            "type": type_,
            "entity_kind": entity_kind,
            "entity_ids": list(role_ids),
            "severity": severity,
            "message": self.message(role_ids, count),
            "details": self.details(len(role_ids), count),
            "axis": axis,
            "group": {
                "role_ids": list(role_ids),
                "axis": axis,
                "max_differences": self.max_differences,
            },
        }

    @cached_property
    def _values(self) -> tuple[str, str, str, str]:
        """The enum values a record carries, looked up once."""
        return (
            self.type.value,
            EntityKind.ROLE.value,
            self.severity.value,
            self.axis.value,
        )

    @cached_property
    def plain_text(self) -> list[str]:
        """One group as ``json.dumps(record, sort_keys=True)`` writes it
        when its ids are plain (:func:`_plain`), cut at its slots: the
        size, (the redundant roles of a duplicate group,) the count, the
        joined ids twice, the size, (the count of a duplicate group,)
        and the shown ids."""
        k = self.max_differences
        # JSON text never holds a raw NUL, so NULs mark the slots.
        details = dict.fromkeys(self.details(0, 0), "\0")
        if "max_differences" in details:  # a constant of a similar group
            details["max_differences"] = str(k)
        axis = json.dumps(self.axis.value)
        members = {
            "axis": axis,
            "details": _object_text(details),
            "entity_ids": '["\0"]',
            "entity_kind": json.dumps(EntityKind.ROLE.value),
            "group": _object_text(
                {"axis": axis, "max_differences": str(k), "role_ids": '["\0"]'}
            ),
            "message": '"%s"' % self.template.format("\0", "\0", "\0"),
            "severity": json.dumps(self.severity.value),
            "type": json.dumps(self.type.value),
        }
        return _object_text(members).split("\0")


class Groups:
    """The role groups of one :class:`GroupSpec`, as columns: the member
    role ids of every group in one flat column, group ``g`` being
    ``ids[bounds[g]:bounds[g + 1]]``, and the count of each group."""

    __slots__ = ("spec", "ids", "bounds", "counts")

    def __init__(
        self,
        spec: GroupSpec,
        ids: list[str],
        bounds: list[int],
        counts: list[int],
    ) -> None:
        if len(bounds) != len(counts) + 1 or bounds[-1] != len(ids):
            raise ValueError("the bounds do not cut the ids into the groups")
        self.spec = spec
        self.ids = ids
        self.bounds = bounds
        self.counts = counts

    def __len__(self) -> int:
        return len(self.counts)

    def entity_ids(self) -> list[tuple[str, ...]]:
        """Each group's ``Finding.entity_ids``."""
        ids, bounds = self.ids, self.bounds
        return [tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:])]

    def finding(self, row: int) -> Finding:
        members = self.ids[self.bounds[row] : self.bounds[row + 1]]
        return self.spec.finding(tuple(members), self.counts[row])

    def findings(self) -> list[Finding]:
        return list(map(self.spec.finding, self.entity_ids(), self.counts))

    def dicts(self) -> list[dict]:
        return list(map(self.spec.record, self.entity_ids(), self.counts))

    def texts(self) -> list[str]:
        """Each group's JSON text, as ``json.dumps(record, sort_keys=True)``
        writes it: :attr:`GroupSpec.plain_text` joined with the group's
        values (one f-string) when its ids are plain, else the dump of
        its record."""
        spec = self.spec
        pieces = spec.plain_text
        duplicate = spec.type is InefficiencyType.DUPLICATE_ROLES
        every_id_plain = _plain(self.ids)
        rows = []
        for ids, count in zip(self.entity_ids(), self.counts):
            if not (every_id_plain or _plain(ids)):
                record = spec.record(ids, count)
                rows.append(json.dumps(record, sort_keys=True))
                continue
            n = len(ids)
            joined = '", "'.join(ids)
            # JSON writes the ellipsis as an escape.
            shown = ", ".join(ids[:5]) + ("\\u2026" if n > 5 else "")
            if duplicate:
                a, b, c, d, e, f, g, h, i = pieces
                rows.append(
                    f"{a}{n}{b}{n - 1}{c}{count}{d}{joined}{e}{joined}"
                    f"{f}{n}{g}{count}{h}{shown}{i}"
                )
            else:
                a, b, c, d, e, f, g = pieces
                rows.append(
                    f"{a}{n}{b}{count}{c}{joined}{d}{joined}{e}{n}{f}{shown}{g}"
                )
        return rows


def _record_text(finding: Finding) -> str:
    """``json.dumps(finding.to_dict(), sort_keys=True)``.

    A record without a group, whose entity ids are plain
    (:func:`_plain`) and whose details are ints, is one ``%`` of its
    shape's template, with the message quoted by the JSON module's
    string encoder; any other is dumped from its dict.
    """
    details = finding.details
    ids = finding.entity_ids
    if (
        finding.group is None
        and all(type(n) is int for n in details.values())
        and type(finding.message) is str
        and _plain(ids)
    ):
        template = _record_template(
            finding.type,
            finding.entity_kind,
            finding.severity,
            finding.axis,
            tuple(details),
        )
        if template is not None:
            text, keys = template
            slots = [details[key] for key in keys]
            slots += ('", "'.join(ids), _quote(finding.message))
            return text % tuple(slots)
    return json.dumps(finding.to_dict(), sort_keys=True)


@cache
def _record_template(
    type_: InefficiencyType,
    entity_kind: EntityKind,
    severity: Severity,
    axis: Axis | None,
    keys: tuple[Any, ...],
) -> tuple[str, tuple[str, ...]] | None:
    """The ``%`` template of a record of one shape, with plain ids and no
    group, and its details keys in slot order (built once per shape);
    ``None`` unless every key is a string.  Slots: each detail
    (``%d``), the joined entity ids and the quoted message."""
    if not all(type(key) is str for key in keys):
        return None
    keys = tuple(sorted(keys))
    details = ", ".join(f"{_literal(key)}: %d" for key in keys)
    members = {
        "details": "{%s}" % details,
        "entity_ids": '["%s"]',
        "entity_kind": _literal(entity_kind.value),
        "message": "%s",
        "severity": _literal(severity.value),
        "type": _literal(type_.value),
    }
    if axis is not None:
        members["axis"] = _literal(axis.value)
    return _object_text(members), keys


#: A part of :class:`Findings` held as columns.
Columns = Bucket | Groups


class Findings(Sequence[Finding]):
    """A report's findings in detection order, held as a list of parts.

    A part is a :class:`Bucket`, a :class:`Groups` or a list of
    :class:`Finding` records.  Counting and writing read the parts; the
    findings themselves are built on first use (indexing, iterating,
    comparing) and kept.
    """

    def __init__(self, parts: Iterable[Columns | list[Finding]] = ()) -> None:
        self.parts: list[Columns | list[Finding]] = []
        self._findings: list[Finding] | None = None
        for part in parts:
            self.add(part)

    def add(self, part: Columns | list[Finding]) -> None:
        """Append a part; an empty one is dropped, and records following
        records join their list."""
        if not len(part):
            return
        self._findings = None
        if isinstance(part, Columns):
            self.parts.append(part)
        elif self.parts and isinstance(self.parts[-1], list):
            self.parts[-1].extend(part)
        else:
            self.parts.append(list(part))

    def extend(self, found: Iterable[Finding]) -> None:
        """Append another :class:`Findings`' parts, or findings as records."""
        if isinstance(found, Findings):
            for part in found.parts:
                self.add(part)
        else:
            self.add(list(found))

    def columns(self) -> Iterator[Columns]:
        """The parts held as columns, in detection order."""
        return (part for part in self.parts if not isinstance(part, list))

    def records(self) -> Iterator[Finding]:
        """The findings held as records, in detection order."""
        for part in self.parts:
            if isinstance(part, list):
                yield from part

    def materialise(self) -> list[Finding]:
        """Every finding, in detection order (built once)."""
        if self._findings is None:
            self._findings = self._rows("findings", lambda f: f)
        return self._findings

    def finding(self, index: int) -> Finding:
        """The finding at detection ``index`` (>= 0), built alone."""
        for part in self.parts:
            if index < len(part):
                return (
                    part[index]
                    if isinstance(part, list)
                    else part.finding(index)
                )
            index -= len(part)
        raise IndexError("finding index out of range")

    def dicts(self) -> list[dict]:
        """``Finding.to_dict()`` of every finding, in detection order."""
        return self._rows("dicts", Finding.to_dict)

    def texts(self) -> list[str]:
        """Every finding's ``json.dumps(to_dict(), sort_keys=True)``, in
        detection order (:meth:`Bucket.texts`, :meth:`Groups.texts`,
        :func:`_record_text`)."""
        return self._rows("texts", _record_text)

    def _rows(self, of_columns: str, of_record: Callable) -> list:
        """One row per finding, in detection order: the rows the
        ``of_columns`` method of a column part returns, ``of_record``
        of each record."""
        rows: list = []
        for part in self.parts:
            rows += (
                map(of_record, part)
                if isinstance(part, list)
                else getattr(part, of_columns)()
            )
        return rows

    def review_order(self) -> list[int]:
        """Detection indices in :func:`sort_findings` order.

        Severity rank descending, then type, then the entity-id tuple;
        ties keep detection order.  Each ``(severity, type)`` group is
        sorted once: a group of buckets only by its ids, as strings,
        concatenated in detection order (which the stable sort keeps for
        equal ids); any other group by the id tuples.
        """
        groups: dict[tuple[int, str], list[tuple[int, Any]]] = {}
        start = 0
        for part in self.parts:
            if not isinstance(part, list):
                spec = part.spec
                key = (-spec.severity.rank, spec.type.value)
                groups.setdefault(key, []).append((start, part))
                start += len(part)
                continue
            for finding in part:
                key = (-finding.severity.rank, finding.type.value)
                groups.setdefault(key, []).append((start, finding))
                start += 1
        order: list[int] = []
        for key in sorted(groups):
            members = groups[key]
            buckets = all(isinstance(member, Bucket) for _, member in members)
            index: list[int] = []
            ids: list[Any] = []
            for offset, member in members:
                if isinstance(member, Finding):
                    index.append(offset)
                    ids.append(member.entity_ids)
                    continue
                index += range(offset, offset + len(member))
                ids += member.ids if buckets else member.entity_ids()
            order += map(
                index.__getitem__, sorted(range(len(ids)), key=ids.__getitem__)
            )
        return order

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    def __getitem__(self, index):  # type: ignore[override]
        return self.materialise()[index]

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.materialise())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Findings, list, tuple)):
            return self.materialise() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Findings({self.materialise()!r})"
