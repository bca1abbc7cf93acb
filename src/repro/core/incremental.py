"""Incremental inefficiency tracking for continuously-mutating RBAC data.

The batch engine (:mod:`repro.core.engine`) re-derives everything from
scratch — the right tool for a periodic audit.  Between audits, IAM
systems mutate constantly, and re-running a full analysis per mutation
is wasteful: one assignment touches exactly one role's row.

:class:`IncrementalAuditor` maintains the same inefficiency counts as
:meth:`repro.core.report.Report.counts` under a stream of mutations.
Each mutation is processed in time proportional to the change (the
expensive grouping structures never get rebuilt), and every count is a
running tally that the mutation which changes it keeps current, so
``counts()`` reads eleven integers and never builds a group or sweeps
the roles:

* types 1-3 (standalone / disconnected / single-assignment) via the
  touched role's user and permission set sizes before and after each
  mutation, plus the counts of unassigned users and permissions the
  state keeps current in its mutators;
* type 4 (duplicates) via content buckets: roles grouped by the exact
  content of their user (permission) set, with a tally of the roles
  in buckets of two or more;
* type 5 (similar) via a dynamic proximity graph over *distinct set
  contents*: when a role's set changes, only the neighbourhood of the
  old and new contents is re-examined — candidate contents are found
  through the member → roles reverse index, mirroring how the paper's
  co-occurrence algorithm only inspects overlapping pairs.  The tally
  is the number of contents with at least one neighbour: each lies in
  a component of two or more, so it equals the summed component sizes
  the batch detector counts.  Components are computed only for
  :meth:`IncrementalAuditor.similar_groups`.

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
from repro.util import groups_of_pairs


class _AxisIndex:
    """Duplicate buckets + similarity graph for one axis of one auditor.

    Nodes of the similarity graph are *contents* (frozensets of user or
    permission ids, empty excluded); an edge joins two contents at
    symmetric-difference size ``<= threshold``.  ``n_duplicate`` and
    ``n_similar`` are the axis's type 4 and type 5 counts, kept current
    by the bucket and graph updates.
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
        #: size -> non-empty contents of that size, for sizes below the
        #: threshold: the only contents a zero-overlap pass can match.
        self.small: dict[int, set[frozenset[str]]] = {}
        #: roles in non-empty buckets of two or more.
        self.n_duplicate = 0
        #: contents with at least one similar content.
        self.n_similar = 0

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
            if content:
                # 1 -> 2 makes both roles duplicates; k -> k+1 adds one.
                self.n_duplicate += 2 if len(bucket) == 2 else 1
            return
        self.buckets[content] = {role_id}
        if content:
            self._add_graph_node(content)

    def _leave_bucket(self, role_id: str, content: frozenset[str]) -> None:
        bucket = self.buckets[content]
        bucket.discard(role_id)
        if content and bucket:
            self.n_duplicate -= 2 if len(bucket) == 1 else 1
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
        if neighbors:
            self.n_similar += 1
        for neighbor in neighbors:
            others = self.similar[neighbor]
            if not others:
                self.n_similar += 1
            others.add(content)
        for member in content:
            self.member_contents.setdefault(member, set()).add(content)
        if len(content) < self.threshold:
            self.small.setdefault(len(content), set()).add(content)

    def _remove_graph_node(self, content: frozenset[str]) -> None:
        neighbors = self.similar.pop(content)
        if neighbors:
            self.n_similar -= 1
        for neighbor in neighbors:
            others = self.similar[neighbor]
            others.discard(content)
            if not others:
                self.n_similar -= 1
        for member in content:
            remaining = self.member_contents.get(member)
            if remaining is not None:
                remaining.discard(content)
                if not remaining:
                    del self.member_contents[member]
        if len(content) < self.threshold:
            same_size = self.small[len(content)]
            same_size.discard(content)
            if not same_size:
                del self.small[len(content)]

    def _candidates(
        self, content: frozenset[str]
    ) -> Iterable[frozenset[str]]:
        """Contents that could be within ``threshold`` of ``content``.

        Two sets within symmetric-difference ``k`` either share a member
        (found through the reverse index) or are disjoint with
        ``|A| + |B| <= k`` (found through :attr:`small`, so the pass
        never walks the buckets).  The same case split the
        co-occurrence algorithm makes.
        """
        seen: set[frozenset[str]] = set()
        for member in content:
            for candidate in self.member_contents.get(member, ()):
                if candidate not in seen:
                    seen.add(candidate)
                    yield candidate
        # zero-overlap partners need |other| <= threshold - |content|
        for size in range(1, self.threshold - len(content) + 1):
            for candidate in self.small.get(size, ()):
                if candidate not in seen and not (candidate & content):
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
        pairs = [
            (index_of[content], index_of[neighbor])
            for content in contents
            for neighbor in self.similar[content]
        ]
        rows, cols = zip(*pairs) if pairs else ((), ())
        groups = groups_of_pairs(len(contents), rows, cols)
        return [[contents[i] for i in group] for group in groups]

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
        # Type 1-3 role tallies, moved by _retally.
        self._standalone_roles = 0
        self._roles_without_users = 0
        self._roles_without_permissions = 0
        self._single_user_roles = 0
        self._single_permission_roles = 0
        for role_id in self._state.role_ids():
            users = self._state.users_of_role(role_id)
            permissions = self._state.permissions_of_role(role_id)
            self._users.set_role(role_id, users)
            self._permissions.set_role(role_id, permissions)
            self._retally(None, (len(users), len(permissions)))

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
        self._retally(None, (0, 0))

    def remove_user(self, user_id: str) -> None:
        affected = self._state.roles_of_user(user_id)
        self._state.remove_user(user_id)
        for role_id in affected:
            self._set_users(role_id)

    def remove_permission(self, permission_id: str) -> None:
        affected = self._state.roles_of_permission(permission_id)
        self._state.remove_permission(permission_id)
        for role_id in affected:
            self._set_permissions(role_id)

    def remove_role(self, role_id: str) -> None:
        self._state.remove_role(role_id)
        before = self._sizes(role_id)
        self._users.drop_role(role_id)
        self._permissions.drop_role(role_id)
        self._retally(before, None)

    def assign_user(self, role_id: str, user_id: str) -> None:
        self._state.assign_user(role_id, user_id)
        self._set_users(role_id)

    def revoke_user(self, role_id: str, user_id: str) -> None:
        self._state.revoke_user(role_id, user_id)
        self._set_users(role_id)

    def assign_permission(self, role_id: str, permission_id: str) -> None:
        self._state.assign_permission(role_id, permission_id)
        self._set_permissions(role_id)

    def revoke_permission(self, role_id: str, permission_id: str) -> None:
        self._state.revoke_permission(role_id, permission_id)
        self._set_permissions(role_id)

    # ------------------------------------------------------------------
    # Index and tally maintenance
    # ------------------------------------------------------------------
    def _set_users(self, role_id: str) -> None:
        before = self._sizes(role_id)
        self._users.set_role(role_id, self._state.users_of_role(role_id))
        self._retally(before, self._sizes(role_id))

    def _set_permissions(self, role_id: str) -> None:
        before = self._sizes(role_id)
        self._permissions.set_role(
            role_id, self._state.permissions_of_role(role_id)
        )
        self._retally(before, self._sizes(role_id))

    def _sizes(self, role_id: str) -> tuple[int, int]:
        """A tracked role's ``(users, permissions)`` set sizes."""
        return (
            len(self._users.role_content[role_id]),
            len(self._permissions.role_content[role_id]),
        )

    def _retally(
        self,
        before: tuple[int, int] | None,
        after: tuple[int, int] | None,
    ) -> None:
        """Move one role's type 1-3 tallies from its ``(users,
        permissions)`` sizes before a change to those after it (``None``
        on the side where the role does not exist)."""
        for sizes, sign in ((before, -1), (after, 1)):
            if sizes is None:
                continue
            n_users, n_permissions = sizes
            if n_users == 0:
                if n_permissions == 0:
                    self._standalone_roles += sign
                else:
                    self._roles_without_users += sign
            elif n_permissions == 0:
                self._roles_without_permissions += sign
            if n_users == 1:
                self._single_user_roles += sign
            if n_permissions == 1:
                self._single_permission_roles += sign

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
        """Same buckets, keys, and semantics as ``Report.counts()``,
        read from the running tallies in O(1)."""
        state = self._state
        return {
            "standalone_users": state.n_unassigned_users,
            "standalone_permissions": state.n_unassigned_permissions,
            "standalone_roles": self._standalone_roles,
            "roles_without_users": self._roles_without_users,
            "roles_without_permissions": self._roles_without_permissions,
            "single_user_roles": self._single_user_roles,
            "single_permission_roles": self._single_permission_roles,
            "roles_same_users": self._users.n_duplicate,
            "roles_same_permissions": self._permissions.n_duplicate,
            "roles_similar_users": self._users.n_similar,
            "roles_similar_permissions": self._permissions.n_similar,
        }
