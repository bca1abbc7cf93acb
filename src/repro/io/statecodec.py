"""Binary, versioned encoding of an RBAC state.

The job plane stores each state it analyses once, as one of these
blobs (see :mod:`repro.jobs.queue`), and the service's snapshot holds
one after its header line (see :mod:`repro.service.store`).  The layout follows the state's
bulk form (:meth:`RbacState.to_arrays`); all integers little-endian::

    magic        8 bytes    b"RBACSTB\\x00"
    version      uint32     FORMAT_VERSION
    header size  uint32     length of the header in bytes
    header       UTF-8 JSON object
    edges        int32[]    user edges: role indices, then user indices;
                            permission edges: role indices, then
                            permission indices

The header holds the ids per kind in insertion order (``ids``), the
``[name, attributes]`` of the entities that have either (``metadata``)
and the number of edges per axis (``edges``).  Decoding ignores header
fields it does not know, so a writer may add some without a new
version; any other change to the layout bumps ``FORMAT_VERSION``.
Attribute values JSON cannot hold are written as their ``str``, the
encoding :meth:`RbacState.fingerprint` hashes them under.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.core.state import RbacState
from repro.exceptions import DataFormatError, ReproError
from repro.util.jsontext import plain

__all__ = ["FORMAT_VERSION", "decode_state", "encode_state"]

FORMAT_VERSION = 1

_MAGIC = b"RBACSTB\x00"
_PREFIX = struct.Struct("<8sII")
_EDGE = np.dtype("<i4")
_AXES = ("user", "permission")


def _dumps(value: object) -> str:
    return json.dumps(value, separators=(",", ":"), default=str)


def _id_list(ids: list[str]) -> str:
    """``_dumps(ids)``, with one join when every id is plain."""
    if ids and plain(ids):
        return '["' + '","'.join(ids) + '"]'
    return _dumps(ids)


def encode_state(state: RbacState) -> bytes:
    """The blob of ``state`` (its content, in insertion order)."""
    arrays = state.to_arrays()
    ids = {
        "user": arrays.user_ids,
        "role": arrays.role_ids,
        "permission": arrays.permission_ids,
    }
    if max(map(len, ids.values())) > np.iinfo(_EDGE).max:
        raise DataFormatError("state too large for int32 edge indices")
    edges = (arrays.user_edges, arrays.permission_edges)
    # The text ``json.dumps`` writes for the whole header, the id lists
    # (its bulk) joined directly where they are plain.
    header = "".join([
        '{"ids":{',
        ",".join(
            f'"{kind}":{_id_list(kind_ids)}' for kind, kind_ids in ids.items()
        ),
        '},"metadata":',
        _dumps(arrays.metadata),
        ',"edges":',
        _dumps(dict(zip(_AXES, (len(roles) for roles, _ in edges)))),
        "}",
    ]).encode("utf-8")
    return b"".join([
        _PREFIX.pack(_MAGIC, FORMAT_VERSION, len(header)),
        header,
        *(
            np.asarray(column, dtype=_EDGE).tobytes()
            for pair in edges
            for column in pair
        ),
    ])


def decode_state(data: bytes) -> RbacState:
    """Rebuild the state :func:`encode_state` wrote.

    Goes through :meth:`RbacState.from_arrays`, so every id and edge
    index is checked.  Raises :class:`DataFormatError` for anything
    that is not a well-formed blob of this version.
    """
    if len(data) < _PREFIX.size:
        raise DataFormatError(
            f"truncated state blob: {len(data)} bytes, no full prefix"
        )
    magic, version, header_size = _PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise DataFormatError("not a state blob (bad magic number)")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported state blob version: {version}")
    start = _PREFIX.size + header_size
    if len(data) < start:
        raise DataFormatError(
            f"truncated state blob: header needs {start} bytes, "
            f"have {len(data)}"
        )
    try:
        header = json.loads(data[_PREFIX.size:start])
        ids = header["ids"]
        counts = [header["edges"][axis] for axis in _AXES]
        metadata = header.get("metadata", {})
    except (KeyError, TypeError, ValueError) as error:
        raise DataFormatError(f"malformed state blob header: {error}") from error
    if not all(type(count) is int and count >= 0 for count in counts):
        raise DataFormatError(f"malformed state blob edge counts: {counts}")
    size = start + 2 * sum(counts) * _EDGE.itemsize
    if len(data) != size:
        raise DataFormatError(
            f"state blob is {len(data)} bytes, its header describes {size}"
        )
    columns = np.frombuffer(
        data, dtype=_EDGE, count=2 * sum(counts), offset=start
    )
    n_user = counts[0]
    try:
        return RbacState.from_arrays(
            ids["user"],
            ids["role"],
            ids["permission"],
            (columns[:n_user], columns[n_user:2 * n_user]),
            (columns[2 * n_user:2 * n_user + counts[1]],
             columns[2 * n_user + counts[1]:]),
            metadata,
        )
    except ReproError as error:
        raise DataFormatError(f"inconsistent state blob: {error}") from error
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise DataFormatError(f"malformed state blob: {error}") from error
