"""Deterministic pseudonymisation of RBAC states.

The paper cannot publish its real dataset and reports only order-of-
magnitude aggregates.  ``anonymize`` supports the same workflow for
library users: it maps every entity id (and drops names/attributes) to an
opaque pseudonym while preserving the graph structure exactly, so all
detection results carry over one-to-one.

Pseudonyms are keyed HMAC-SHA256 prefixes: stable for a given secret key
(so two exports of the same dataset align), unlinkable without it.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.core.state import RbacState


def _pseudonym(key: bytes, kind: str, identifier: str, length: int) -> str:
    digest = hmac.new(
        key, f"{kind}:{identifier}".encode("utf-8"), hashlib.sha256
    ).hexdigest()
    return f"{kind[0]}-{digest[:length]}"


def anonymize(
    state: RbacState, key: str | bytes = b"", digest_length: int = 16
) -> RbacState:
    """Return a structurally identical state with pseudonymous ids.

    Parameters
    ----------
    state:
        The state to anonymise (not modified).
    key:
        HMAC key.  The same key maps the same ids to the same pseudonyms
        across runs; an empty key still anonymises but is guessable by
        anyone who can enumerate the original id space.
    digest_length:
        Hex characters kept per pseudonym (collisions raise
        ``DuplicateEntityError``; raise the length if that happens on
        very large datasets).

    Each id is aliased once and the clone is built in one
    :meth:`RbacState.from_arrays` call, ids in the source's order.
    """
    key_bytes = key.encode("utf-8") if isinstance(key, str) else key
    arrays = state.to_arrays()

    def aliases(kind: str, ids: list[str]) -> list[str]:
        return [
            _pseudonym(key_bytes, kind, entity_id, digest_length)
            for entity_id in ids
        ]

    # Aliasing moves no index, so the edge arrays carry over as they are.
    return RbacState.from_arrays(
        aliases("user", arrays.user_ids),
        aliases("role", arrays.role_ids),
        aliases("permission", arrays.permission_ids),
        arrays.user_edges,
        arrays.permission_edges,
    )
