"""Incremental inefficiency tracking for continuously-mutating RBAC data.

The batch engine (:mod:`repro.core.engine`) re-derives everything from
scratch — the right tool for a periodic audit.  Between audits, IAM
systems mutate constantly, and re-running a full analysis per mutation
is wasteful: one assignment touches exactly one role's row.

:class:`IncrementalAuditor` maintains the same inefficiency counts as
:meth:`repro.core.report.Report.counts` under a stream of mutations.
Each mutation is processed in time proportional to the change (the
expensive grouping structures never get rebuilt); ``counts()`` itself is
a sweep over the roles' maintained indexes, never a quadratic regroup:

* types 1-3 (standalone / disconnected / single-assignment) via the
  roles' set sizes, and the counts of unassigned users and permissions
  the state keeps current in its mutators (so ``counts()`` never asks a
  user or permission for its roles);
* type 4 (duplicates) via content buckets: roles grouped by the exact
  content of their user (permission) set;
* type 5 (similar) via a dynamic proximity graph over *distinct set
  contents*: when a role's set changes, only the neighbourhood of the
  old and new contents is re-examined — candidate contents are found
  through the member → roles reverse index, mirroring how the paper's
  co-occurrence algorithm only inspects overlapping pairs.

Semantics match the batch engine exactly (the test suite asserts
``auditor.counts() == analyze(auditor.state).counts()`` after arbitrary
mutation sequences), with the engine's defaults: empty rows excluded
from grouping and exact duplicates collapsed before similarity.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.state import RbacState
from repro.core.taxonomy import Axis
from repro.exceptions import ConfigurationError
from repro.util import DisjointSet


class _AxisIndex:
    """Duplicate buckets + similarity graph for one axis of one auditor.

    Nodes of the similarity graph are *contents* (frozensets of user or
    permission ids, empty excluded); an edge joins two contents at
    symmetric-difference size ``<= threshold``.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        #: role -> its current content (including empty sets).
        self.role_content: dict[str, frozenset[str]] = {}
        #: content -> roles currently having exactly that content.
        self.buckets: dict[frozenset[str], set[str]] = {}
        #: member id -> contents containing it (non-empty contents only).
        self.member_contents: dict[str, set[frozenset[str]]] = {}
        #: content -> similar contents (distance 1..threshold).
        self.similar: dict[frozenset[str], set[frozenset[str]]] = {}

    # -- bucket/graph maintenance ------------------------------------
    def set_role(self, role_id: str, content: frozenset[str]) -> None:
        """Register/update a role's content."""
        previous = self.role_content.get(role_id)
        if previous == content and role_id in self.role_content:
            return
        if previous is not None:
            self._leave_bucket(role_id, previous)
        self.role_content[role_id] = content
        self._enter_bucket(role_id, content)

    def drop_role(self, role_id: str) -> None:
        previous = self.role_content.pop(role_id, None)
        if previous is not None:
            self._leave_bucket(role_id, previous)

    def _enter_bucket(self, role_id: str, content: frozenset[str]) -> None:
        bucket = self.buckets.get(content)
        if bucket is not None:
            bucket.add(role_id)
            return
        self.buckets[content] = {role_id}
        if content:
            self._add_graph_node(content)

    def _leave_bucket(self, role_id: str, content: frozenset[str]) -> None:
        bucket = self.buckets[content]
        bucket.discard(role_id)
        if not bucket:
            del self.buckets[content]
            if content:
                self._remove_graph_node(content)

    def _add_graph_node(self, content: frozenset[str]) -> None:
        neighbors: set[frozenset[str]] = set()
        for candidate in self._candidates(content):
            if candidate == content:
                continue
            distance = len(content.symmetric_difference(candidate))
            if 1 <= distance <= self.threshold:
                neighbors.add(candidate)
        self.similar[content] = neighbors
        for neighbor in neighbors:
            self.similar[neighbor].add(content)
        for member in content:
            self.member_contents.setdefault(member, set()).add(content)

    def _remove_graph_node(self, content: frozenset[str]) -> None:
        for neighbor in self.similar.pop(content, set()):
            self.similar[neighbor].discard(content)
        for member in content:
            remaining = self.member_contents.get(member)
            if remaining is not None:
                remaining.discard(content)
                if not remaining:
                    del self.member_contents[member]

    def _candidates(
        self, content: frozenset[str]
    ) -> Iterable[frozenset[str]]:
        """Contents that could be within ``threshold`` of ``content``.

        Two sets within symmetric-difference ``k`` either share a member
        (found through the reverse index) or are both of size ``<= k``
        (zero overlap: distance = |A| + |B|).  The same case split the
        co-occurrence algorithm makes.
        """
        seen: set[frozenset[str]] = set()
        for member in content:
            for candidate in self.member_contents.get(member, ()):
                if candidate not in seen:
                    seen.add(candidate)
                    yield candidate
        if len(content) < self.threshold:
            # zero-overlap partners need |other| <= threshold - |content|
            for candidate, _roles in self.buckets.items():
                if (
                    candidate
                    and candidate not in seen
                    and len(candidate) + len(content) <= self.threshold
                    and not (candidate & content)
                ):
                    seen.add(candidate)
                    yield candidate

    # -- queries -------------------------------------------------------
    def duplicate_groups(self) -> list[list[str]]:
        """Groups of role ids with identical non-empty content."""
        groups = [
            sorted(roles)
            for content, roles in self.buckets.items()
            if content and len(roles) > 1
        ]
        groups.sort(key=lambda members: members[0])
        return groups

    def similar_components(self) -> list[list[frozenset[str]]]:
        """Connected components (size >= 2) of the similarity graph."""
        contents = [c for c in self.similar if self.similar[c]]
        index_of = {content: i for i, content in enumerate(contents)}
        components = DisjointSet(len(contents))
        for content in contents:
            for neighbor in self.similar[content]:
                components.union(index_of[content], index_of[neighbor])
        return [
            [contents[i] for i in group]
            for group in components.groups(min_size=2)
        ]

    def similar_groups(self) -> list[list[str]]:
        """Representative role ids per similarity component.

        One representative (smallest role id) per distinct content,
        matching the batch detector's collapse-duplicates semantics.
        """
        groups = [
            sorted(min(self.buckets[content]) for content in component)
            for component in self.similar_components()
        ]
        groups.sort(key=lambda members: members[0])
        return groups

    def n_similar_roles(self) -> int:
        """Representatives involved in similarity groups (count key)."""
        return sum(len(component) for component in self.similar_components())


class IncrementalAuditor:
    """Maintains inefficiency counts under a stream of RBAC mutations.

    Construct from an existing state (copied, never aliased) or empty,
    then mutate through the auditor's methods.  ``counts()`` is always
    equal to ``analyze(auditor.state).counts()`` with the default
    configuration and the auditor's similarity threshold.
    """

    def __init__(
        self,
        state: RbacState | None = None,
        similarity_threshold: int = 1,
    ) -> None:
        if similarity_threshold < 1:
            raise ConfigurationError(
                "similarity_threshold must be >= 1 "
                f"(got {similarity_threshold})"
            )
        self.similarity_threshold = int(similarity_threshold)
        self._state = state.copy() if state is not None else RbacState()
        self._users = _AxisIndex(self.similarity_threshold)
        self._permissions = _AxisIndex(self.similarity_threshold)
        for role_id in self._state.role_ids():
            self._users.set_role(role_id, self._state.users_of_role(role_id))
            self._permissions.set_role(
                role_id, self._state.permissions_of_role(role_id)
            )

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def state(self) -> RbacState:
        """The auditor's live state.

        Mutate it **only** through the auditor methods; direct mutation
        desynchronises the indexes.
        """
        return self._state

    # ------------------------------------------------------------------
    # Mutations (same vocabulary as RbacState)
    # ------------------------------------------------------------------
    def add_user(self, user_id: str) -> None:
        self._state.add_user(user_id)

    def add_permission(self, permission_id: str) -> None:
        self._state.add_permission(permission_id)

    def add_role(self, role_id: str) -> None:
        self._state.add_role(role_id)
        self._users.set_role(role_id, frozenset())
        self._permissions.set_role(role_id, frozenset())

    def remove_user(self, user_id: str) -> None:
        affected = self._state.roles_of_user(user_id)
        self._state.remove_user(user_id)
        for role_id in affected:
            self._users.set_role(role_id, self._state.users_of_role(role_id))

    def remove_permission(self, permission_id: str) -> None:
        affected = self._state.roles_of_permission(permission_id)
        self._state.remove_permission(permission_id)
        for role_id in affected:
            self._permissions.set_role(
                role_id, self._state.permissions_of_role(role_id)
            )

    def remove_role(self, role_id: str) -> None:
        self._state.remove_role(role_id)
        self._users.drop_role(role_id)
        self._permissions.drop_role(role_id)

    def assign_user(self, role_id: str, user_id: str) -> None:
        self._state.assign_user(role_id, user_id)
        self._users.set_role(role_id, self._state.users_of_role(role_id))

    def revoke_user(self, role_id: str, user_id: str) -> None:
        self._state.revoke_user(role_id, user_id)
        self._users.set_role(role_id, self._state.users_of_role(role_id))

    def assign_permission(self, role_id: str, permission_id: str) -> None:
        self._state.assign_permission(role_id, permission_id)
        self._permissions.set_role(
            role_id, self._state.permissions_of_role(role_id)
        )

    def revoke_permission(self, role_id: str, permission_id: str) -> None:
        self._state.revoke_permission(role_id, permission_id)
        self._permissions.set_role(
            role_id, self._state.permissions_of_role(role_id)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def duplicate_groups(self, axis: Axis) -> list[list[str]]:
        """Current duplicate-role groups on one axis (type 4)."""
        index = self._users if axis is Axis.USERS else self._permissions
        return index.duplicate_groups()

    def similar_groups(self, axis: Axis) -> list[list[str]]:
        """Current similar-role groups on one axis (type 5),
        one representative per distinct content."""
        index = self._users if axis is Axis.USERS else self._permissions
        return index.similar_groups()

    def counts(self) -> dict[str, int]:
        """Same buckets, keys, and semantics as ``Report.counts()``."""
        state = self._state
        user_sizes = {
            role_id: len(self._users.role_content[role_id])
            for role_id in state.role_ids()
        }
        permission_sizes = {
            role_id: len(self._permissions.role_content[role_id])
            for role_id in state.role_ids()
        }
        return {
            "standalone_users": state.n_unassigned_users,
            "standalone_permissions": state.n_unassigned_permissions,
            "standalone_roles": sum(
                1
                for role_id in state.role_ids()
                if user_sizes[role_id] == 0 and permission_sizes[role_id] == 0
            ),
            "roles_without_users": sum(
                1
                for role_id in state.role_ids()
                if user_sizes[role_id] == 0 and permission_sizes[role_id] > 0
            ),
            "roles_without_permissions": sum(
                1
                for role_id in state.role_ids()
                if permission_sizes[role_id] == 0 and user_sizes[role_id] > 0
            ),
            "single_user_roles": sum(
                1 for size in user_sizes.values() if size == 1
            ),
            "single_permission_roles": sum(
                1 for size in permission_sizes.values() if size == 1
            ),
            "roles_same_users": sum(
                len(group) for group in self._users.duplicate_groups()
            ),
            "roles_same_permissions": sum(
                len(group) for group in self._permissions.duplicate_groups()
            ),
            "roles_similar_users": self._users.n_similar_roles(),
            "roles_similar_permissions": (
                self._permissions.n_similar_roles()
            ),
        }
