"""Sorted-key JSON objects with members that are JSON text already."""

from __future__ import annotations

import json
from typing import Any, Mapping


def verbatim_json(
    plain: Mapping[str, Any],
    encoded: Mapping[str, bytes],
    end: bytes = b"",
) -> bytes:
    """Sorted-key JSON of an object whose ``encoded`` members are JSON already.

    ``plain`` members are encoded here with ``json.dumps(value,
    sort_keys=True)``; ``encoded`` members must be UTF-8 JSON written
    the same way, and go in as they are.  The result is byte-identical
    to ``json.dumps(whole, sort_keys=True)`` (then ``end``) for the
    parsed whole, without parsing or encoding the stored members again.
    """
    members = {
        key: json.dumps(value, sort_keys=True).encode("utf-8")
        for key, value in plain.items()
    }
    members.update(encoded)
    # One join, so a large stored member is copied once.
    parts: list[bytes] = [b"{"]
    for key in sorted(members):
        parts += (b", ", json.dumps(key).encode("utf-8"), b": ", members[key])
    del parts[1:2]  # no separator before the first member
    parts += (b"}", end)
    return b"".join(parts)
