"""JSON serialisation of RBAC states.

Document shape (version 1)::

    {
      "format": "repro-rbac",
      "version": 1,
      "users":       [{"id": "...", "name": "...", "attributes": {...}}, ...],
      "roles":       [...],
      "permissions": [...],
      "user_assignments":       [["role", "user"], ...],
      "permission_assignments": [["role", "permission"], ...]
    }

``name`` and ``attributes`` are optional on load and omitted on save when
empty, keeping large exports compact.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.state import RbacState
from repro.exceptions import DataFormatError, ReproError, UnknownEntityError

FORMAT_NAME = "repro-rbac"
FORMAT_VERSION = 1


def _entity_payloads(
    ids: list[str], meta: dict[str, tuple[str, Any]]
) -> list[dict[str, Any]]:
    payloads: list[dict[str, Any]] = [{"id": entity_id} for entity_id in ids]
    if meta:
        for payload in payloads:
            name, attributes = meta.get(payload["id"], ("", None))
            if name:
                payload["name"] = name
            if attributes:
                payload["attributes"] = dict(attributes)
    return payloads


def _edge_pairs(
    edges: tuple[np.ndarray, np.ndarray],
    role_ids: np.ndarray,
    member_ids: list[str],
) -> list[list[str]]:
    """``[role, member]`` pairs, grouped by role, members by ascending id."""
    roles, members = edges
    by_id = sorted(range(len(member_ids)), key=member_ids.__getitem__)
    rank = np.empty(len(member_ids), dtype=np.int64)
    rank[by_id] = np.arange(len(member_ids), dtype=np.int64)
    order = np.lexsort((rank[members], roles))
    return list(map(
        list,
        zip(
            role_ids[roles[order]].tolist(),
            np.array(member_ids, dtype=object)[members[order]].tolist(),
        ),
    ))


def state_to_dict(state: RbacState) -> dict[str, Any]:
    """The JSON-ready document for ``state`` (built from its bulk form,
    without entity values)."""
    arrays = state.to_arrays()
    role_ids = np.array(arrays.role_ids, dtype=object)
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "users": _entity_payloads(
            arrays.user_ids, arrays.metadata.get("user", {})
        ),
        "roles": _entity_payloads(
            arrays.role_ids, arrays.metadata.get("role", {})
        ),
        "permissions": _entity_payloads(
            arrays.permission_ids, arrays.metadata.get("permission", {})
        ),
        "user_assignments": _edge_pairs(
            arrays.user_edges, role_ids, arrays.user_ids
        ),
        "permission_assignments": _edge_pairs(
            arrays.permission_edges, role_ids, arrays.permission_ids
        ),
    }


def _entities(
    items: Any,
) -> tuple[list[Any], dict[Any, tuple[Any, Any]]]:
    """The ids of one entity list, and ``(name, attributes)`` of the
    entities that carry more than an id (checked by ``from_arrays``)."""
    items = list(items)
    ids = [item["id"] for item in items]
    extra = np.flatnonzero(
        np.fromiter(map(len, items), dtype=np.int64, count=len(ids)) > 1
    )
    meta = {
        item["id"]: (item.get("name", ""), item.get("attributes", {}))
        for item in map(items.__getitem__, extra.tolist())
    }
    return ids, meta


def _edges(
    pairs: Any, role_index: dict[Any, int], member_index: dict[Any, int],
    kind: str,
) -> tuple[np.ndarray, np.ndarray]:
    """``(role indices, member indices)`` of ``[role, member]`` pairs."""
    pairs = list(pairs)
    if set(map(len, pairs)) - {2}:
        at = next(at for at, pair in enumerate(pairs) if len(pair) != 2)
        raise ValueError(
            f"{kind} assignment {at} has {len(pairs[at])} values, expected 2"
        )
    flat = list(chain.from_iterable(pairs))
    roles, members = flat[0::2], flat[1::2]
    role_at = np.fromiter(
        map(role_index.get, roles, repeat(-1)), dtype=np.int64,
        count=len(roles),
    )
    member_at = np.fromiter(
        map(member_index.get, members, repeat(-1)), dtype=np.int64,
        count=len(members),
    )
    missing = (role_at < 0) | (member_at < 0)
    if missing.any():
        at = int(np.argmax(missing))
        if role_at[at] < 0:
            raise UnknownEntityError("role", roles[at])
        raise UnknownEntityError(kind, members[at])
    return role_at, member_at


def _index(ids: list[Any]) -> dict[Any, int]:
    return dict(zip(ids, range(len(ids))))


def state_from_dict(document: dict[str, Any]) -> RbacState:
    """Rebuild a state from a document produced by :func:`state_to_dict`.

    Every entity id is checked (a non-empty string, unique per kind)
    and every assignment must name known entities; a failed check
    raises :class:`DataFormatError`.
    """
    if not isinstance(document, dict):
        raise DataFormatError("expected a JSON object at the top level")
    if document.get("format") != FORMAT_NAME:
        raise DataFormatError(
            f"unexpected format marker: {document.get('format')!r}"
        )
    version = document.get("version")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported format version: {version!r}")

    try:
        user_ids, user_meta = _entities(document.get("users", []))
        role_ids, role_meta = _entities(document.get("roles", []))
        permission_ids, permission_meta = _entities(
            document.get("permissions", [])
        )
        role_index = _index(role_ids)
        user_edges = _edges(
            document.get("user_assignments", []),
            role_index, _index(user_ids), "user",
        )
        permission_edges = _edges(
            document.get("permission_assignments", []),
            role_index, _index(permission_ids), "permission",
        )
        return RbacState.from_arrays(
            user_ids,
            role_ids,
            permission_ids,
            user_edges,
            permission_edges,
            {
                "user": user_meta,
                "role": role_meta,
                "permission": permission_meta,
            },
        )
    except ReproError as error:  # UnknownEntityError, DuplicateEntityError
        raise DataFormatError(f"inconsistent RBAC document: {error}") from error
    except (KeyError, TypeError, ValueError) as error:
        raise DataFormatError(f"malformed RBAC document: {error}") from error


def dumps_json(state: RbacState, indent: int | None = None) -> str:
    """Serialise ``state`` to a JSON string."""
    return json.dumps(state_to_dict(state), indent=indent)


def loads_json(text: str) -> RbacState:
    """Parse a state from a JSON string."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise DataFormatError(f"invalid JSON: {error}") from error
    return state_from_dict(document)


def save_json(
    state: RbacState, path: str | Path, indent: int | None = None
) -> None:
    """Write ``state`` to ``path`` as JSON."""
    Path(path).write_text(dumps_json(state, indent=indent), encoding="utf-8")


def load_json(path: str | Path) -> RbacState:
    """Read a state from a JSON file."""
    return loads_json(Path(path).read_text(encoding="utf-8"))
