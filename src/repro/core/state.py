"""The mutable RBAC state: entities plus assignment edges.

:class:`RbacState` is the central data structure of the library.  It holds
the three entity collections and the two edge sets of the tripartite graph
(user-role and role-permission assignments), maintains forward and reverse
adjacency indexes, and offers set-algebra queries used by detectors and
remediation.

Edges to unknown entities are rejected — the state is always internally
consistent, so downstream code never has to re-validate.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Iterable, Iterator

from repro.core.entities import Entity, EntityKind, Permission, Role, User
from repro.exceptions import DuplicateEntityError, UnknownEntityError

_MASK = (1 << 256) - 1


def _item_digest(tag: str, *parts: str) -> int:
    """SHA-256 of one tagged, delimiter-separated item, as an int."""
    h = hashlib.sha256()
    h.update(tag.encode("utf-8"))
    for part in parts:
        h.update(b"\x1f")
        h.update(part.encode("utf-8"))
    return int.from_bytes(h.digest(), "big")


def _entity_digest(tag: str, entity: Entity) -> int:
    """Digest of one entity: its id, name and (sorted) attributes."""
    attributes = (
        json.dumps(dict(entity.attributes), sort_keys=True, default=str)
        if entity.attributes
        else ""
    )
    return _item_digest(tag, entity.id, entity.name, attributes)


def _content_digest(state: "RbacState") -> int:
    """The full pass: sum modulo 2**256 of every item's digest."""
    total = 0
    for collection, tag in (
        (state._users, "user"),
        (state._roles, "role"),
        (state._permissions, "permission"),
    ):
        for entity in collection.values():
            total += _entity_digest(tag, entity)
    for role_id, members in state._role_users.items():
        for user_id in members:
            total += _item_digest("edge:ru", role_id, user_id)
    for role_id, grants in state._role_permissions.items():
        for permission_id in grants:
            total += _item_digest("edge:rp", role_id, permission_id)
    return total & _MASK


class RbacState:
    """In-memory RBAC dataset (users, roles, permissions, assignments)."""

    def __init__(self) -> None:
        self._users: dict[str, User] = {}
        self._roles: dict[str, Role] = {}
        self._permissions: dict[str, Permission] = {}
        # Forward adjacency: role -> members / grants.
        self._role_users: dict[str, set[str]] = {}
        self._role_permissions: dict[str, set[str]] = {}
        # Reverse adjacency: user/permission -> roles.
        self._user_roles: dict[str, set[str]] = {}
        self._permission_roles: dict[str, set[str]] = {}
        # The content digest as an int, once fingerprint() has computed
        # it; from then on every mutator keeps it current.
        self._digest: int | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        users: Iterable[str | User] = (),
        roles: Iterable[str | Role] = (),
        permissions: Iterable[str | Permission] = (),
        user_assignments: Iterable[tuple[str, str]] = (),
        permission_assignments: Iterable[tuple[str, str]] = (),
    ) -> "RbacState":
        """Build a state in one call.

        ``user_assignments`` are ``(role_id, user_id)`` pairs;
        ``permission_assignments`` are ``(role_id, permission_id)`` pairs.
        Plain strings are promoted to entities with empty metadata.
        """
        state = cls()
        for user in users:
            state.add_user(user if isinstance(user, User) else User(user))
        for role in roles:
            state.add_role(role if isinstance(role, Role) else Role(role))
        for permission in permissions:
            state.add_permission(
                permission
                if isinstance(permission, Permission)
                else Permission(permission)
            )
        for role_id, user_id in user_assignments:
            state.assign_user(role_id, user_id)
        for role_id, permission_id in permission_assignments:
            state.assign_permission(role_id, permission_id)
        return state

    # ------------------------------------------------------------------
    # Entity management
    # ------------------------------------------------------------------
    def add_user(self, user: User | str) -> User:
        entity = user if isinstance(user, User) else User(user)
        if entity.id in self._users:
            raise DuplicateEntityError("user", entity.id)
        self._users[entity.id] = entity
        self._user_roles[entity.id] = set()
        self._track(1, _entity_digest, "user", entity)
        return entity

    def add_role(self, role: Role | str) -> Role:
        entity = role if isinstance(role, Role) else Role(role)
        if entity.id in self._roles:
            raise DuplicateEntityError("role", entity.id)
        self._roles[entity.id] = entity
        self._role_users[entity.id] = set()
        self._role_permissions[entity.id] = set()
        self._track(1, _entity_digest, "role", entity)
        return entity

    def add_permission(self, permission: Permission | str) -> Permission:
        entity = (
            permission
            if isinstance(permission, Permission)
            else Permission(permission)
        )
        if entity.id in self._permissions:
            raise DuplicateEntityError("permission", entity.id)
        self._permissions[entity.id] = entity
        self._permission_roles[entity.id] = set()
        self._track(1, _entity_digest, "permission", entity)
        return entity

    def remove_user(self, user_id: str) -> None:
        """Remove a user and all of their role assignments."""
        self._require_user(user_id)
        for role_id in self._user_roles.pop(user_id):
            self._role_users[role_id].discard(user_id)
            self._track(-1, _item_digest, "edge:ru", role_id, user_id)
        self._track(-1, _entity_digest, "user", self._users.pop(user_id))

    def remove_role(self, role_id: str) -> None:
        """Remove a role and all its edges (both directions)."""
        self._require_role(role_id)
        for user_id in self._role_users.pop(role_id):
            self._user_roles[user_id].discard(role_id)
            self._track(-1, _item_digest, "edge:ru", role_id, user_id)
        for permission_id in self._role_permissions.pop(role_id):
            self._permission_roles[permission_id].discard(role_id)
            self._track(-1, _item_digest, "edge:rp", role_id, permission_id)
        self._track(-1, _entity_digest, "role", self._roles.pop(role_id))

    def remove_permission(self, permission_id: str) -> None:
        """Remove a permission and all of its role assignments."""
        self._require_permission(permission_id)
        for role_id in self._permission_roles.pop(permission_id):
            self._role_permissions[role_id].discard(permission_id)
            self._track(-1, _item_digest, "edge:rp", role_id, permission_id)
        self._track(
            -1, _entity_digest, "permission", self._permissions.pop(permission_id)
        )

    # ------------------------------------------------------------------
    # Assignment management
    # ------------------------------------------------------------------
    def assign_user(self, role_id: str, user_id: str) -> None:
        """Add a role -> user edge (idempotent)."""
        self._require_role(role_id)
        self._require_user(user_id)
        members = self._role_users[role_id]
        if user_id in members:
            return
        members.add(user_id)
        self._user_roles[user_id].add(role_id)
        self._track(1, _item_digest, "edge:ru", role_id, user_id)

    def assign_permission(self, role_id: str, permission_id: str) -> None:
        """Add a role -> permission edge (idempotent)."""
        self._require_role(role_id)
        self._require_permission(permission_id)
        grants = self._role_permissions[role_id]
        if permission_id in grants:
            return
        grants.add(permission_id)
        self._permission_roles[permission_id].add(role_id)
        self._track(1, _item_digest, "edge:rp", role_id, permission_id)

    def revoke_user(self, role_id: str, user_id: str) -> None:
        """Remove a role -> user edge (no-op if absent)."""
        self._require_role(role_id)
        self._require_user(user_id)
        members = self._role_users[role_id]
        if user_id not in members:
            return
        members.remove(user_id)
        self._user_roles[user_id].remove(role_id)
        self._track(-1, _item_digest, "edge:ru", role_id, user_id)

    def revoke_permission(self, role_id: str, permission_id: str) -> None:
        """Remove a role -> permission edge (no-op if absent)."""
        self._require_role(role_id)
        self._require_permission(permission_id)
        grants = self._role_permissions[role_id]
        if permission_id not in grants:
            return
        grants.remove(permission_id)
        self._permission_roles[permission_id].remove(role_id)
        self._track(-1, _item_digest, "edge:rp", role_id, permission_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self._users)

    @property
    def n_roles(self) -> int:
        return len(self._roles)

    @property
    def n_permissions(self) -> int:
        return len(self._permissions)

    @property
    def n_user_assignments(self) -> int:
        return sum(len(members) for members in self._role_users.values())

    @property
    def n_permission_assignments(self) -> int:
        return sum(len(grants) for grants in self._role_permissions.values())

    def user_ids(self) -> list[str]:
        """User ids in insertion order (the column order of RUAM)."""
        return list(self._users)

    def role_ids(self) -> list[str]:
        """Role ids in insertion order (the row order of RUAM/RPAM)."""
        return list(self._roles)

    def permission_ids(self) -> list[str]:
        """Permission ids in insertion order (the column order of RPAM)."""
        return list(self._permissions)

    def get_user(self, user_id: str) -> User:
        self._require_user(user_id)
        return self._users[user_id]

    def get_role(self, role_id: str) -> Role:
        self._require_role(role_id)
        return self._roles[role_id]

    def get_permission(self, permission_id: str) -> Permission:
        self._require_permission(permission_id)
        return self._permissions[permission_id]

    def has_user(self, user_id: str) -> bool:
        return user_id in self._users

    def has_role(self, role_id: str) -> bool:
        return role_id in self._roles

    def has_permission(self, permission_id: str) -> bool:
        return permission_id in self._permissions

    def users_of_role(self, role_id: str) -> frozenset[str]:
        self._require_role(role_id)
        return frozenset(self._role_users[role_id])

    def permissions_of_role(self, role_id: str) -> frozenset[str]:
        self._require_role(role_id)
        return frozenset(self._role_permissions[role_id])

    def roles_of_user(self, user_id: str) -> frozenset[str]:
        self._require_user(user_id)
        return frozenset(self._user_roles[user_id])

    def roles_of_permission(self, permission_id: str) -> frozenset[str]:
        self._require_permission(permission_id)
        return frozenset(self._permission_roles[permission_id])

    def effective_permissions(self, user_id: str) -> frozenset[str]:
        """Union of permissions granted to ``user_id`` through any role.

        This is the quantity remediation must preserve: merging duplicate
        roles is safe exactly when no user's effective permission set
        changes.
        """
        self._require_user(user_id)
        granted: set[str] = set()
        for role_id in self._user_roles[user_id]:
            granted.update(self._role_permissions[role_id])
        return frozenset(granted)

    def effective_users(self, permission_id: str) -> frozenset[str]:
        """Every user who holds ``permission_id`` through any role.

        The audit-time converse of :meth:`effective_permissions` ("who
        can do X?").
        """
        self._require_permission(permission_id)
        holders: set[str] = set()
        for role_id in self._permission_roles[permission_id]:
            holders.update(self._role_users[role_id])
        return frozenset(holders)

    def effective_permission_map(self) -> dict[str, frozenset[str]]:
        """``effective_permissions`` for every user, in one pass."""
        return {
            user_id: self.effective_permissions(user_id)
            for user_id in self._users
        }

    # ------------------------------------------------------------------
    # Iteration / copying
    # ------------------------------------------------------------------
    def iter_entities(self) -> Iterator[Entity]:
        yield from self._users.values()
        yield from self._roles.values()
        yield from self._permissions.values()

    def copy(self) -> "RbacState":
        """Deep-enough copy: entities are shared (immutable), edges copied."""
        clone = RbacState()
        clone._users = dict(self._users)
        clone._roles = dict(self._roles)
        clone._permissions = dict(self._permissions)
        clone._role_users = {k: set(v) for k, v in self._role_users.items()}
        clone._role_permissions = {
            k: set(v) for k, v in self._role_permissions.items()
        }
        clone._user_roles = {k: set(v) for k, v in self._user_roles.items()}
        clone._permission_roles = {
            k: set(v) for k, v in self._permission_roles.items()
        }
        clone._digest = self._digest
        return clone

    def fingerprint(self) -> str:
        """Order-insensitive content digest of entities + assignments.

        Two states have the same fingerprint exactly when they contain
        the same users, roles, and permissions (ids, names, attributes)
        and the same assignment edges — regardless of the order anything
        was inserted.  Any content mutation (add/remove an entity,
        assign/revoke an edge) changes the digest.

        This is the report-cache key of the analysis service
        (:mod:`repro.service`): a cached report is valid for exactly as
        long as the fingerprint it was computed under.

        Each item is hashed independently (SHA-256 over a tagged,
        delimiter-separated encoding) and the per-item digests are
        combined with addition modulo 2**256.  That makes the digest an
        incremental multiset hash (Bellare & Micciancio, EUROCRYPT
        1997): the first call computes it in one O(items) pass, and from
        then on every mutator adds or subtracts the digests of exactly
        the items it changes, so later calls are O(1).  A state that
        never asks for its fingerprint pays nothing.
        """
        if self._digest is None:
            self._digest = _content_digest(self)
        return f"{self._digest:064x}"

    def recompute_fingerprint(self) -> str:
        """:meth:`fingerprint` from a full pass over the content.

        Never reads or updates the maintained digest; use it to verify
        content that came from outside (a snapshot on disk).
        """
        return f"{_content_digest(self):064x}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RbacState):
            return NotImplemented
        return (
            self._users == other._users
            and self._roles == other._roles
            and self._permissions == other._permissions
            and self._role_users == other._role_users
            and self._role_permissions == other._role_permissions
        )

    def __repr__(self) -> str:
        return (
            f"RbacState(users={self.n_users}, roles={self.n_roles}, "
            f"permissions={self.n_permissions}, "
            f"user_edges={self.n_user_assignments}, "
            f"permission_edges={self.n_permission_assignments})"
        )

    # ------------------------------------------------------------------
    # Graph export
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export the tripartite graph as a ``networkx.Graph``.

        Node names are prefixed with their kind (``user:``, ``role:``,
        ``permission:``) to keep the three id namespaces disjoint; each
        node carries a ``kind`` attribute.
        """
        import networkx as nx

        graph = nx.Graph()
        for user_id in self._users:
            graph.add_node(f"user:{user_id}", kind=EntityKind.USER.value)
        for role_id in self._roles:
            graph.add_node(f"role:{role_id}", kind=EntityKind.ROLE.value)
        for permission_id in self._permissions:
            graph.add_node(
                f"permission:{permission_id}", kind=EntityKind.PERMISSION.value
            )
        for role_id, members in self._role_users.items():
            for user_id in members:
                graph.add_edge(f"role:{role_id}", f"user:{user_id}")
        for role_id, grants in self._role_permissions.items():
            for permission_id in grants:
                graph.add_edge(f"role:{role_id}", f"permission:{permission_id}")
        return graph

    # ------------------------------------------------------------------
    # Digest maintenance
    # ------------------------------------------------------------------
    def _track(
        self, sign: int, digest: Callable[..., int], *item: Any
    ) -> None:
        """Add (``sign=1``) or subtract (``-1``) ``digest(*item)``.

        A no-op until :meth:`fingerprint` first computes the digest.
        """
        if self._digest is not None:
            self._digest = (self._digest + sign * digest(*item)) & _MASK

    # ------------------------------------------------------------------
    # Internal guards
    # ------------------------------------------------------------------
    def _require_user(self, user_id: str) -> None:
        if user_id not in self._users:
            raise UnknownEntityError("user", user_id)

    def _require_role(self, role_id: str) -> None:
        if role_id not in self._roles:
            raise UnknownEntityError("role", role_id)

    def _require_permission(self, permission_id: str) -> None:
        if permission_id not in self._permissions:
            raise UnknownEntityError("permission", permission_id)
