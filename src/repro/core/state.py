"""The mutable RBAC state: entities plus assignment edges.

:class:`RbacState` is the central data structure of the library.  It holds
the three entity collections and the two edge sets of the tripartite graph
(user-role and role-permission assignments) and offers the set-algebra
queries used by detectors and remediation.

Edges to unknown entities are rejected — the state is always internally
consistent, so downstream code never has to re-validate.

Layout.  The state stores what the two assignment matrices (RUAM, RPAM)
need and little else:

* per entity kind, an id table: a dict from id to *slot* (an int handed
  out in insertion order) and a dict from slot back to id, sharing one
  int object per slot with each other and the edge dicts.  Iterating
  the first yields the live ids in insertion order; a removed id drops
  out and a re-added one moves to the end, so ``*_ids()`` order is that
  of an insertion-ordered dict.  Slots of removed ids are reclaimed by
  compaction once they outnumber the live ones;
* a sparse side table of names and attributes.  Entities that have
  neither own no Python object: :meth:`RbacState.get_user` and friends
  build a frozen value on demand (equal to, but never identical with,
  the value that was added);
* per axis (users, permissions) and role slot, the member slots the
  role holds, as the keys of a dict, plus per member the number of
  roles holding it.  The matrices are numpy slices of the edge dicts.
  :meth:`RbacState.copy` shares the edge dicts copy-on-write: one is
  copied the first time either state mutates it;
* a bulk-built axis (:meth:`RbacState.from_arrays`: generated, decoded
  and imported states) keeps its edges as the sorted, deduplicated
  ``(indptr, member slots)`` arrays it computes, read-only, and builds
  the edge dicts from them in one pass only when something first needs
  them: an edge mutation, adding or removing a role, a forward or
  reverse membership query, :meth:`RbacState.fingerprint` or a
  compaction.  Until then the matrices, :meth:`RbacState.to_arrays`,
  the edge counts and :meth:`RbacState.copy` (which shares the arrays)
  read the arrays, so decoding a state and analysing it builds no
  per-role dict;
* per axis, a reverse index (member slot -> role slots) behind
  ``roles_of_user`` / ``roles_of_permission``, the ``effective_*``
  queries and member removal.  The first such query builds it in one
  vectorised pass, keyed by the role table's own slot ints; from then
  on the mutators keep it current, so each reverse query costs
  O(degree).  A state that is never asked one (decode, copy, analysis)
  never builds it.

Every one of these dicts holds only strings, ints and ``None``.  CPython
does not track such dicts for garbage collection, so a state is a handful of GC-tracked
objects whatever its size (plus side-table entries holding containers)
and adds nothing to the cost of a full collection.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np
import numpy.typing as npt

from repro.core.entities import Entity, EntityKind, Permission, Role, User
from repro.exceptions import (
    DuplicateEntityError,
    UnknownEntityError,
    ValidationError,
)

_MASK = (1 << 256) - 1

#: Side-table value of an entity without a name or attributes.
_PLAIN: tuple[str, Mapping[str, Any]] = ("", {})
#: Edges of a removed role's slot (never reachable by id again).
_DEAD: frozenset[int] = frozenset()
#: Dead slots tolerated before an id table compacts (and never more
#: than the live ones), so removal stays amortised O(1).
_COMPACT_MIN_DEAD = 64

IndexArray = npt.NDArray[np.int64]


def _item_digest(tag: str, *parts: str) -> int:
    """SHA-256 of one tagged, delimiter-separated item, as an int."""
    encoded = "\x1f".join((tag, *parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(encoded).digest(), "big")


def _entity_digest(
    tag: str,
    entity_id: str,
    name: str = "",
    attributes: Mapping[str, Any] = _PLAIN[1],
) -> int:
    """Digest of one entity: its id, name and (sorted) attributes."""
    encoded = (
        json.dumps(dict(attributes), sort_keys=True, default=str)
        if attributes
        else ""
    )
    return _item_digest(tag, entity_id, name, encoded)


def _digest_sum(items: Iterable[str]) -> int:
    """Sum of the digests of already-joined items (the cold pass)."""
    sha256 = hashlib.sha256
    from_bytes = int.from_bytes
    return sum(
        from_bytes(sha256(item.encode("utf-8")).digest(), "big")
        for item in items
    )


def _content_digest(state: "RbacState") -> int:
    """The full pass: sum modulo 2**256 of every item's digest.

    Hashes the id tables, the side tables and the edge dicts directly;
    each item's bytes are exactly those :func:`_item_digest` hashes.
    """
    total = 0
    for table in (state._users, state._roles, state._permissions):
        tag, meta = table.kind, table.meta
        total += _digest_sum(
            f"{tag}\x1f{entity_id}\x1f\x1f"
            for entity_id in table.index
            if entity_id not in meta
        )
        total += sum(
            _entity_digest(tag, entity_id, *value)
            for entity_id, value in meta.items()
        )
    role_ids = state._roles.ids
    for axis, tag in ((state._users, "edge:ru"), (state._permissions, "edge:rp")):
        member_ids = axis.ids
        total += _digest_sum(chain.from_iterable(
            (
                f"{tag}\x1f{role_ids[role]}\x1f{member_ids[member]}"
                for member in members
            )
            for role, members in enumerate(axis.built())
            if members
        ))
    return total & _MASK


class _Ids:
    """The id table of one entity kind (see the module docstring)."""

    __slots__ = ("kind", "index", "ids", "n_slots", "meta")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        #: id -> slot, in insertion order.
        self.index: dict[str, int] = {}
        #: slot -> id, live slots only (ascending: slots are handed out
        #: in insertion order).
        self.ids: dict[int, str] = {}
        #: Slots handed out so far, dead ones included.
        self.n_slots = 0
        #: id -> (name, attributes), for entities that have either.
        self.meta: dict[str, tuple[str, dict[str, Any]]] = {}

    def copy(self) -> "_Ids":
        clone = object.__new__(type(self))
        clone.kind = self.kind
        clone.index = self.index.copy()
        clone.ids = self.ids.copy()
        clone.n_slots = self.n_slots
        clone.meta = self.meta.copy()
        return clone

    def slot(self, entity_id: str) -> int:
        try:
            return self.index[entity_id]
        except KeyError:
            raise UnknownEntityError(self.kind, entity_id) from None

    def add(self, entity: Entity) -> int:
        if entity.id in self.index:
            raise DuplicateEntityError(self.kind, entity.id)
        slot = self.n_slots
        self.n_slots += 1
        self.index[entity.id] = slot
        self.ids[slot] = entity.id
        if entity.name or entity.attributes:
            self.meta[entity.id] = (entity.name, dict(entity.attributes))
        return slot

    def remove(self, entity_id: str) -> int:
        slot = self.index.pop(entity_id)
        del self.ids[slot]
        self.meta.pop(entity_id, None)
        return slot

    def load(self, ids: Iterable[str]) -> None:
        """Fill an empty table in one step, checking ids as ``add`` does."""
        ids = list(ids)
        for kind in set(map(type, ids)):
            if not issubclass(kind, str):
                raise TypeError(
                    f"{self.kind} id must be a string, got {kind.__name__}"
                )
        # One int per slot, shared by both tables (and by the edge dict
        # keys, see ``_Axis.load_edges``), as the per-item mutators share
        # the slot they hand out.
        slots = list(range(len(ids)))
        index = dict(zip(ids, slots))
        if "" in index:
            raise ValueError(f"{self.kind} id must be a non-empty string")
        if len(index) != len(ids):
            seen: set[str] = set()
            for entity_id in ids:
                if entity_id in seen:
                    raise DuplicateEntityError(self.kind, entity_id)
                seen.add(entity_id)
        self.index = index
        self.ids = dict(zip(slots, ids))
        self.n_slots = len(ids)

    def entity(self, cls: type, entity_id: str) -> Entity:
        self.slot(entity_id)
        name, attributes = self.meta.get(entity_id, _PLAIN)
        return cls(entity_id, name, attributes)

    def payload(self, entity_id: str) -> tuple[str, str, Mapping[str, Any]]:
        """``(id, name, attributes)`` as :func:`_entity_digest` takes them."""
        return (entity_id, *self.meta.get(entity_id, _PLAIN))

    def slot_objects(self) -> npt.NDArray[np.object_]:
        """Slot -> the table's own int object for it (``None`` if dead),
        so that keys taken from it share the tables' ints."""
        live = np.fromiter(self.ids, dtype=object, count=len(self.ids))
        if len(live) == self.n_slots:
            return live
        objects = np.full(self.n_slots, None, dtype=object)
        objects[live.astype(np.int64)] = live
        return objects

    def positions(self) -> IndexArray | None:
        """Slot -> position among the live ids; ``None`` if none died."""
        if len(self.ids) == self.n_slots:
            return None
        positions = np.full(self.n_slots, -1, dtype=np.int64)
        live = np.fromiter(self.ids, dtype=np.int64, count=len(self.ids))
        positions[live] = np.arange(len(live), dtype=np.int64)
        return positions

    def should_compact(self) -> bool:
        dead = self.n_slots - len(self.ids)
        return dead > _COMPACT_MIN_DEAD and dead > len(self.ids)

    def compact(self) -> list[int]:
        """Renumber the live slots densely; returns old slot -> new slot
        (``-1`` for a dead one)."""
        slots = list(range(len(self.ids)))
        remap = [-1] * self.n_slots
        for new, old in zip(slots, self.ids):
            remap[old] = new
        self.index = dict(zip(self.index, slots))
        self.ids = dict(zip(slots, self.index))
        self.n_slots = len(slots)
        return remap


class _Axis(_Ids):
    """Users or permissions: their id table plus the role edges to them."""

    __slots__ = ("degree", "n_isolated", "edges", "csr", "owned", "holders")

    def __init__(self, kind: str) -> None:
        super().__init__(kind)
        #: member slot -> number of roles holding it.
        self.degree: list[int] = []
        #: live members no role holds.
        self.n_isolated = 0
        #: role slot -> the member slots the role holds (dict keys);
        #: ``None`` until :meth:`built` builds them from ``csr``.
        self.edges: list[dict[int, None]] | None = []
        #: A bulk-built axis's ``(indptr, member slots)``, read-only and
        #: each row ascending, while ``edges`` is ``None``.  No role has
        #: been added or removed since, so its rows are every role's.
        self.csr: tuple[IndexArray, IndexArray] | None = None
        #: role slots whose edges this axis may mutate in place
        #: (``None``: all); the others are shared with a copy.
        self.owned: set[int] | None = None
        #: member slot -> the role slots holding it (dict keys); built
        #: by the first reverse query, kept current from then on, and
        #: never shared with a copy.
        self.holders: list[dict[int, None]] | None = None

    def copy(self) -> "_Axis":
        """A copy sharing every role's edges (or the read-only arrays);
        neither side owns any now."""
        clone = super().copy()
        clone.degree = self.degree.copy()
        clone.n_isolated = self.n_isolated
        clone.edges = None if self.edges is None else self.edges.copy()
        clone.csr = self.csr
        clone.owned = set()
        clone.holders = None
        self.owned = set()
        return clone

    def add(self, entity: Entity) -> int:
        slot = super().add(entity)
        self.degree.append(0)
        self.n_isolated += 1
        if self.holders is not None:
            self.holders.append({})
        return slot

    def remove(self, entity_id: str) -> int:
        """Drop a member no role holds any more."""
        slot = super().remove(entity_id)
        self.n_isolated -= 1
        return slot

    def load(self, ids: Iterable[str]) -> None:
        super().load(ids)
        self.degree = [0] * self.n_slots
        self.n_isolated = self.n_slots

    def load_edges(self, edges: tuple[Any, Any], n_roles: int) -> None:
        """Set every role's members from ``(role index, member index)``
        arrays, with vectorised referential checks (on a table just
        filled by :meth:`load`), kept as ``csr`` until :meth:`built`."""
        kind = self.kind
        try:
            role_values, member_values = edges
        except (TypeError, ValueError):
            raise ValidationError(
                f"{kind} edges must be a (role indices, {kind} indices) pair"
            ) from None
        roles = _index_array(role_values, f"{kind} edge role indices")
        members = _index_array(member_values, f"{kind} edge {kind} indices")
        if roles.size != members.size:
            raise ValidationError(
                f"{kind} edges: {roles.size} role indices but "
                f"{members.size} {kind} indices"
            )
        n_members = self.n_slots
        for array, bound, noun in (
            (roles, n_roles, "role"), (members, n_members, kind)
        ):
            bad = (array < 0) | (array >= bound)
            if bad.any():
                at = int(np.argmax(bad))
                raise ValidationError(
                    f"{kind} edge {at}: {noun} index {int(array[at])} is "
                    f"out of range [0, {bound})"
                )
        # Unique row-major keys, sorted: repeated edges collapse and
        # each role's members are one contiguous run.
        width = max(n_members, 1)
        keys = np.sort(roles * width + members)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        roles = keys // width
        members = keys - roles * width
        indptr = np.searchsorted(roles, np.arange(n_roles + 1))
        indptr.flags.writeable = False
        members.flags.writeable = False
        self.edges = None
        self.csr = (indptr, members)
        self.owned = None
        self.holders = None
        degree = np.bincount(members, minlength=n_members)
        self.degree = degree.tolist()
        self.n_isolated = int(np.count_nonzero(degree == 0))

    def built(self) -> list[dict[int, None]]:
        """The edge dicts, built from ``csr`` in one pass if not yet
        there; from then on ``csr`` is dropped and the dicts are owned."""
        edges = self.edges
        if edges is None:
            indptr, members = self.csr
            bounds = indptr.tolist()
            # Keyed by the id table's own slot ints, not a new int per
            # edge.
            flat = self.slot_objects()[members].tolist()
            edges = self.edges = [
                dict.fromkeys(flat[bounds[role]:bounds[role + 1]])
                for role in range(len(bounds) - 1)
            ]
            self.csr = None
            self.owned = None
        return edges

    def n_edges(self) -> int:
        csr = self.csr
        if csr is not None:
            return len(csr[1])
        return sum(map(len, self.edges))

    # -- edges ------------------------------------------------------------
    def add_role(self) -> None:
        edges = self.built()
        edges.append({})
        if self.owned is not None:
            self.owned.add(len(edges) - 1)

    def _writable(self, role: int) -> dict[int, None]:
        owned = self.owned
        if owned is not None and role not in owned:
            self.edges[role] = self.edges[role].copy()
            owned.add(role)
        return self.edges[role]

    def link(self, role: int, member: int) -> bool:
        """Add the edge; ``False`` if it was already there."""
        if member in self.built()[role]:
            return False
        self._writable(role)[member] = None
        if self.holders is not None:
            self.holders[member][role] = None
        if self.degree[member] == 0:
            self.n_isolated -= 1
        self.degree[member] += 1
        return True

    def unlink(self, role: int, member: int) -> bool:
        """Remove the edge; ``False`` if it was not there."""
        if member not in self.built()[role]:
            return False
        del self._writable(role)[member]
        if self.holders is not None:
            del self.holders[member][role]
        self.degree[member] -= 1
        if self.degree[member] == 0:
            self.n_isolated += 1
        return True

    def _reverse(self, roles_table: _Ids) -> list[dict[int, None]]:
        """The reverse index, built from the edge dicts if not yet there."""
        if self.holders is None:
            rows = self.built()
            lengths = np.fromiter(
                map(len, rows), dtype=np.int64, count=len(rows)
            )
            members = np.fromiter(
                chain.from_iterable(rows),
                dtype=np.int64,
                count=int(lengths.sum()),
            )
            order = np.argsort(members, kind="stable")
            # Keyed by the role table's own slot ints, as the mutators
            # key it, not a new int per edge.
            roles = np.repeat(
                roles_table.slot_objects(), lengths
            )[order].tolist()
            bounds = np.searchsorted(
                members[order], np.arange(self.n_slots + 1)
            ).tolist()
            self.holders = [
                dict.fromkeys(roles[bounds[member]:bounds[member + 1]])
                for member in range(self.n_slots)
            ]
        return self.holders

    def roles_holding(self, member: int, roles_table: _Ids) -> list[int]:
        """Role slots (of ``roles_table``) holding ``member``."""
        if not self.degree[member]:
            return []
        return list(self._reverse(roles_table)[member])

    def unlink_member(self, member: int, roles_table: _Ids) -> list[int]:
        """Remove every edge to ``member``; returns the roles that held it."""
        roles = self.roles_holding(member, roles_table)
        for role in roles:
            del self._writable(role)[member]
        if roles:
            self.holders[member] = {}
            self.degree[member] = 0
            self.n_isolated += 1
        return roles

    def unlink_role(self, role: int) -> Iterable[int]:
        """Remove every edge of ``role`` (being removed); returns them."""
        members = self.built()[role]
        degree, holders = self.degree, self.holders
        for member in members:
            if holders is not None:
                del holders[member][role]
            degree[member] -= 1
            if degree[member] == 0:
                self.n_isolated += 1
        self.edges[role] = _DEAD
        return members

    def compact(self) -> list[int]:
        edges = self.built()
        remap = super().compact()
        self.degree = [
            degree for slot, degree in enumerate(self.degree)
            if remap[slot] >= 0
        ]
        # Fresh dicts throughout: a copy may share any of the old ones.
        self.edges = [
            _DEAD if members is _DEAD
            else dict.fromkeys([remap[member] for member in members])
            for members in edges
        ]
        self.owned = None
        self.holders = None
        return remap

    def compact_roles(self, remap: list[int]) -> None:
        """Follow a compaction of the role table."""
        self.edges = [
            members for role, members in enumerate(self.built())
            if remap[role] >= 0
        ]
        if self.owned is not None:
            self.owned = {
                remap[role] for role in self.owned if remap[role] >= 0
            }
        self.holders = None

    def rows(self, roles: Iterable[int]) -> tuple[IndexArray, IndexArray]:
        """``(indptr, indices)`` of the given role slots over the live
        members' positions, each row ascending."""
        # ``csr`` is read first: :meth:`built` sets ``edges`` before it
        # drops ``csr``, so a reader never finds neither.
        csr = self.csr
        if csr is not None:
            # Still bulk-built: every role is live and ``roles`` is all
            # of them.  Positions ascend with slots, so rows stay sorted.
            indptr, indices = csr
            positions = self.positions()
            if positions is not None:
                indices = positions[indices]
            return indptr, indices
        edges = self.edges
        rows = [edges[role] for role in roles]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
        )
        positions = self.positions()
        if positions is not None:
            indices = positions[indices]
        # One sort of row-major keys orders every row at once.
        offsets = np.repeat(
            np.arange(len(rows), dtype=np.int64) * max(len(self.index), 1),
            lengths,
        )
        indices += offsets
        indices.sort()
        indices -= offsets
        return indptr, indices


def _index_array(values: Any, label: str) -> IndexArray:
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValidationError(f"{label} must be a 1-d array")
    if array.size == 0:
        return np.zeros(0, dtype=np.int64)
    if array.dtype.kind not in "iu":
        raise ValidationError(
            f"{label} must hold integers, got dtype {array.dtype}"
        )
    return array.astype(np.int64, copy=False)


class StateArrays(NamedTuple):
    """A state in bulk form: :meth:`RbacState.to_arrays` returns one, and
    ``RbacState.from_arrays(*arrays)`` rebuilds the same content.

    Edges are ``(role index, member index)`` pairs of integer arrays,
    indexing ``role_ids`` and ``user_ids``/``permission_ids``.
    ``metadata`` maps ``"user"``/``"role"``/``"permission"`` to
    ``{id: (name, attributes)}`` for the entities that have either.
    """

    user_ids: list[str]
    role_ids: list[str]
    permission_ids: list[str]
    user_edges: tuple[IndexArray, IndexArray]
    permission_edges: tuple[IndexArray, IndexArray]
    metadata: dict[str, dict[str, tuple[str, Mapping[str, Any]]]]


_NO_EDGES: tuple[IndexArray, IndexArray] = (
    np.zeros(0, dtype=np.int64),
    np.zeros(0, dtype=np.int64),
)


class RbacState:
    """In-memory RBAC dataset (users, roles, permissions, assignments)."""

    def __init__(self) -> None:
        self._users = _Axis("user")
        self._roles = _Ids("role")
        self._permissions = _Axis("permission")
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

    @classmethod
    def from_arrays(
        cls,
        user_ids: Iterable[str],
        role_ids: Iterable[str],
        permission_ids: Iterable[str],
        user_edges: tuple[Any, Any] = _NO_EDGES,
        permission_edges: tuple[Any, Any] = _NO_EDGES,
        metadata: Mapping[str, Mapping[str, tuple[str, Any]]] | None = None,
    ) -> "RbacState":
        """Build a state in bulk (the inverse of :meth:`to_arrays`).

        ``user_edges`` is a ``(role indices, user indices)`` pair of
        equal-length integer arrays into ``role_ids`` and ``user_ids``;
        ``permission_edges`` likewise into ``permission_ids``.  Repeated
        edges collapse, as repeated ``assign_*`` calls do.  ``metadata``
        maps a kind (``"user"``, ``"role"``, ``"permission"``) to
        ``{id: (name, attributes)}``.

        Raises what the per-item mutators raise for the same content —
        :class:`TypeError` for a non-string id, :class:`ValueError` for
        an empty one, :class:`DuplicateEntityError` for a repeated one
        and :class:`UnknownEntityError` for metadata of an absent id —
        and :class:`ValidationError` for edge arrays that are not 1-d
        integer arrays of equal length or hold an index out of range,
        and for metadata of an unknown kind.

        Each axis keeps its edges as read-only CSR arrays until something
        needs the per-role edge dicts (see the module docstring); those
        are then laid out as the mutators lay them out, down to one
        Python int per slot shared by the id tables and every edge dict
        key, so the state retains no more memory.  This is the one bulk
        constructor: :func:`~repro.datagen.generate_org`,
        ``statecodec.decode_state`` and ``jsonio.state_from_dict`` all
        build through it.
        """
        state = cls()
        tables = {
            "user": state._users,
            "role": state._roles,
            "permission": state._permissions,
        }
        for table, ids in zip(
            tables.values(), (user_ids, role_ids, permission_ids)
        ):
            table.load(ids)
        for kind, entries in (metadata or {}).items():
            if kind not in tables:
                raise ValidationError(f"unknown entity kind: {kind!r}")
            table = tables[kind]
            for entity_id, (name, attributes) in entries.items():
                # Keyed by the table's own id string, as ``add`` keys it.
                entity_id = table.ids[table.slot(entity_id)]
                # Checked and copied as the entity constructors do.
                attributes = dict(attributes or {})
                if name or attributes:
                    table.meta[entity_id] = (name, attributes)
        n_roles = state._roles.n_slots
        state._users.load_edges(user_edges, n_roles)
        state._permissions.load_edges(permission_edges, n_roles)
        return state

    def to_arrays(self) -> StateArrays:
        """The state in bulk form, without building entity values.

        Ids are in insertion order; edges are grouped by role in role
        order, each role's members in ascending index order.
        """
        return StateArrays(
            self.user_ids(),
            self.role_ids(),
            self.permission_ids(),
            self._edge_pairs(self._users),
            self._edge_pairs(self._permissions),
            {
                table.kind: {
                    entity_id: (name, dict(attributes))
                    for entity_id, (name, attributes) in table.meta.items()
                }
                for table in (self._users, self._roles, self._permissions)
                if table.meta
            },
        )

    def _edge_pairs(self, axis: _Axis) -> tuple[IndexArray, IndexArray]:
        indptr, members = self._edge_rows(axis.kind)
        roles = np.repeat(
            np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
        )
        return roles, members

    # ------------------------------------------------------------------
    # Entity management
    # ------------------------------------------------------------------
    def add_user(self, user: User | str) -> User:
        entity = user if isinstance(user, User) else User(user)
        self._users.add(entity)
        self._track(1, _entity_digest, "user", *self._users.payload(entity.id))
        return entity

    def add_role(self, role: Role | str) -> Role:
        entity = role if isinstance(role, Role) else Role(role)
        self._roles.add(entity)
        self._users.add_role()
        self._permissions.add_role()
        self._track(1, _entity_digest, "role", *self._roles.payload(entity.id))
        return entity

    def add_permission(self, permission: Permission | str) -> Permission:
        entity = (
            permission
            if isinstance(permission, Permission)
            else Permission(permission)
        )
        self._permissions.add(entity)
        self._track(
            1,
            _entity_digest,
            "permission",
            *self._permissions.payload(entity.id),
        )
        return entity

    def remove_user(self, user_id: str) -> None:
        """Remove a user and all of their role assignments."""
        self._remove_member(self._users, "edge:ru", user_id)

    def remove_role(self, role_id: str) -> None:
        """Remove a role and all its edges (both directions)."""
        slot = self._roles.slot(role_id)
        for axis, tag in (
            (self._users, "edge:ru"), (self._permissions, "edge:rp")
        ):
            member_ids = axis.ids
            for member in axis.unlink_role(slot):
                self._track(-1, _item_digest, tag, role_id, member_ids[member])
        self._track(-1, _entity_digest, "role", *self._roles.payload(role_id))
        self._roles.remove(role_id)
        if self._roles.should_compact():
            remap = self._roles.compact()
            self._users.compact_roles(remap)
            self._permissions.compact_roles(remap)

    def remove_permission(self, permission_id: str) -> None:
        """Remove a permission and all of its role assignments."""
        self._remove_member(self._permissions, "edge:rp", permission_id)

    def _remove_member(self, axis: _Axis, tag: str, member_id: str) -> None:
        role_ids = self._roles.ids
        for role in axis.unlink_member(axis.slot(member_id), self._roles):
            self._track(-1, _item_digest, tag, role_ids[role], member_id)
        self._track(-1, _entity_digest, axis.kind, *axis.payload(member_id))
        axis.remove(member_id)
        if axis.should_compact():
            axis.compact()

    # ------------------------------------------------------------------
    # Assignment management
    # ------------------------------------------------------------------
    def assign_user(self, role_id: str, user_id: str) -> None:
        """Add a role -> user edge (idempotent)."""
        role = self._roles.slot(role_id)
        if self._users.link(role, self._users.slot(user_id)):
            self._track(1, _item_digest, "edge:ru", role_id, user_id)

    def assign_permission(self, role_id: str, permission_id: str) -> None:
        """Add a role -> permission edge (idempotent)."""
        role = self._roles.slot(role_id)
        axis = self._permissions
        if axis.link(role, axis.slot(permission_id)):
            self._track(1, _item_digest, "edge:rp", role_id, permission_id)

    def revoke_user(self, role_id: str, user_id: str) -> None:
        """Remove a role -> user edge (no-op if absent)."""
        role = self._roles.slot(role_id)
        if self._users.unlink(role, self._users.slot(user_id)):
            self._track(-1, _item_digest, "edge:ru", role_id, user_id)

    def revoke_permission(self, role_id: str, permission_id: str) -> None:
        """Remove a role -> permission edge (no-op if absent)."""
        role = self._roles.slot(role_id)
        axis = self._permissions
        if axis.unlink(role, axis.slot(permission_id)):
            self._track(-1, _item_digest, "edge:rp", role_id, permission_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self._users.index)

    @property
    def n_roles(self) -> int:
        return len(self._roles.index)

    @property
    def n_permissions(self) -> int:
        return len(self._permissions.index)

    @property
    def n_user_assignments(self) -> int:
        return self._users.n_edges()

    @property
    def n_permission_assignments(self) -> int:
        return self._permissions.n_edges()

    @property
    def n_unassigned_users(self) -> int:
        """Users no role is assigned to (kept current by the mutators)."""
        return self._users.n_isolated

    @property
    def n_unassigned_permissions(self) -> int:
        """Permissions no role grants (kept current by the mutators)."""
        return self._permissions.n_isolated

    def user_ids(self) -> list[str]:
        """User ids in insertion order (the column order of RUAM)."""
        return list(self._users.index)

    def role_ids(self) -> list[str]:
        """Role ids in insertion order (the row order of RUAM/RPAM)."""
        return list(self._roles.index)

    def permission_ids(self) -> list[str]:
        """Permission ids in insertion order (the column order of RPAM)."""
        return list(self._permissions.index)

    def get_user(self, user_id: str) -> User:
        return self._users.entity(User, user_id)

    def get_role(self, role_id: str) -> Role:
        return self._roles.entity(Role, role_id)

    def get_permission(self, permission_id: str) -> Permission:
        return self._permissions.entity(Permission, permission_id)

    def has_user(self, user_id: str) -> bool:
        return user_id in self._users.index

    def has_role(self, role_id: str) -> bool:
        return role_id in self._roles.index

    def has_permission(self, permission_id: str) -> bool:
        return permission_id in self._permissions.index

    def users_of_role(self, role_id: str) -> frozenset[str]:
        return self._members_of(self._users, role_id)

    def permissions_of_role(self, role_id: str) -> frozenset[str]:
        return self._members_of(self._permissions, role_id)

    def roles_of_user(self, user_id: str) -> frozenset[str]:
        return self._roles_of(self._users, user_id)

    def roles_of_permission(self, permission_id: str) -> frozenset[str]:
        return self._roles_of(self._permissions, permission_id)

    def _members_of(self, axis: _Axis, role_id: str) -> frozenset[str]:
        ids = axis.ids
        members = axis.built()[self._roles.slot(role_id)]
        return frozenset([ids[member] for member in members])

    def _roles_of(self, axis: _Axis, member_id: str) -> frozenset[str]:
        ids = self._roles.ids
        roles = axis.roles_holding(axis.slot(member_id), self._roles)
        return frozenset([ids[role] for role in roles])

    def effective_permissions(self, user_id: str) -> frozenset[str]:
        """Union of permissions granted to ``user_id`` through any role.

        This is the quantity remediation must preserve: merging duplicate
        roles is safe exactly when no user's effective permission set
        changes.
        """
        return self._reachable(self._users, user_id, self._permissions)

    def effective_users(self, permission_id: str) -> frozenset[str]:
        """Every user who holds ``permission_id`` through any role.

        The audit-time converse of :meth:`effective_permissions` ("who
        can do X?").
        """
        return self._reachable(self._permissions, permission_id, self._users)

    def _reachable(
        self, axis: _Axis, member_id: str, other: _Axis
    ) -> frozenset[str]:
        """Ids on ``other`` sharing a role with ``member_id`` on ``axis``."""
        roles = axis.roles_holding(axis.slot(member_id), self._roles)
        ids = other.ids
        rows = other.built()
        reached = set().union(*(rows[role] for role in roles))
        return frozenset([ids[member] for member in reached])

    def effective_permission_map(self) -> dict[str, frozenset[str]]:
        """``effective_permissions`` for every user, in one pass."""
        granted: dict[int, set[int]] = {}
        for users, permissions in zip(
            self._users.built(), self._permissions.built()
        ):
            if permissions:
                for user in users:
                    granted.setdefault(user, set()).update(permissions)
        ids = self._permissions.ids
        return {
            user_id: frozenset([ids[p] for p in granted.get(slot, ())])
            for user_id, slot in self._users.index.items()
        }

    def _edge_rows(self, kind: str) -> tuple[IndexArray, IndexArray]:
        """RUAM (``kind="user"``) or RPAM (``"permission"``) in
        compressed sparse row form, ``(indptr, indices)``.

        Rows follow :meth:`role_ids`, columns the ``*_ids()`` of
        ``kind``; each row's column indices ascend.  Private to
        :mod:`repro.core`: :class:`~repro.core.matrices.AssignmentMatrix`
        builds on it, and :meth:`to_arrays` is the public export.
        """
        axis = self._users if kind == "user" else self._permissions
        return axis.rows(self._roles.index.values())

    # ------------------------------------------------------------------
    # Iteration / copying
    # ------------------------------------------------------------------
    def iter_entities(self) -> Iterator[Entity]:
        for table, cls in (
            (self._users, User),
            (self._roles, Role),
            (self._permissions, Permission),
        ):
            for entity_id in list(table.index):
                yield table.entity(cls, entity_id)

    def copy(self) -> "RbacState":
        """An independent copy.

        Copies the id and side tables; the edge dicts are shared
        copy-on-write, so the copy is O(entities + roles), not
        O(edges).
        """
        clone = RbacState.__new__(RbacState)
        clone._users = self._users.copy()
        clone._roles = self._roles.copy()
        clone._permissions = self._permissions.copy()
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

    def _edge_ids(self) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
        return {
            role_id: (
                self.users_of_role(role_id), self.permissions_of_role(role_id)
            )
            for role_id in self._roles.index
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RbacState):
            return NotImplemented
        for mine, theirs in (
            (self._users, other._users),
            (self._roles, other._roles),
            (self._permissions, other._permissions),
        ):
            if mine.index.keys() != theirs.index.keys() or mine.meta != theirs.meta:
                return False
        return self._edge_ids() == other._edge_ids()

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
        for user_id in self._users.index:
            graph.add_node(f"user:{user_id}", kind=EntityKind.USER.value)
        for role_id in self._roles.index:
            graph.add_node(f"role:{role_id}", kind=EntityKind.ROLE.value)
        for permission_id in self._permissions.index:
            graph.add_node(
                f"permission:{permission_id}", kind=EntityKind.PERMISSION.value
            )
        for role_id, (members, grants) in self._edge_ids().items():
            for user_id in members:
                graph.add_edge(f"role:{role_id}", f"user:{user_id}")
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
