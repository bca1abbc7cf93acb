"""JSON text written without the JSON module: sorted-key objects with
members that are JSON text already, and the test for *plain* strings,
which JSON writes as they stand."""

from __future__ import annotations

import json
import re
from typing import Any, Iterable, Mapping

#: Printable ASCII but ``"``, ``'`` and ``\``: text that JSON writes as
#: it stands and that ``repr`` only wraps in single quotes.
PLAIN = re.compile(r"[ !#-&(-\[\]-~]*")


def plain(texts: Iterable[str]) -> bool:
    """Whether ``texts`` are all strings, and plain (:data:`PLAIN`)."""
    try:
        joined = "".join(texts)
    except TypeError:  # not a string
        return False
    return PLAIN.fullmatch(joined) is not None


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
