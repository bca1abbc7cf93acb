"""Durable snapshots for the analysis service.

The service is a long-running process holding mutable state; the store
makes that state survive restarts.  On graceful drain the server writes
one snapshot — the full RBAC state plus service metadata (mutation
sequence number, content fingerprint, wall-clock stamp) — and a warm
restart reloads it, so a drain/restart cycle is invisible to clients
apart from the gap in availability.

Writes are atomic (temp file in the target directory + ``os.replace``),
so a crash mid-write leaves the previous snapshot intact; loads verify
the stored fingerprint against a full recompute over the rebuilt
state's content, so silent corruption is detected instead of served.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.state import RbacState
from repro.exceptions import DataFormatError
from repro.io.jsonio import state_from_dict, state_to_dict

__all__ = ["SnapshotMeta", "SnapshotStore", "SNAPSHOT_FORMAT", "SNAPSHOT_VERSION"]

SNAPSHOT_FORMAT = "repro-rbac-snapshot"
SNAPSHOT_VERSION = 1


@dataclass
class SnapshotMeta:
    """Service metadata persisted alongside the state."""

    #: Total mutations applied over the service lifetime (monotonic
    #: across warm restarts — clients can detect a cold restart by a
    #: sequence reset).
    mutation_seq: int = 0
    #: ``RbacState.fingerprint()`` at save time; verified on load
    #: against :meth:`RbacState.recompute_fingerprint`.
    fingerprint: str = ""
    #: Wall-clock save time (``time.time()``), informational only.
    saved_at: float = 0.0
    #: Free-form extras (e.g. the server's drain reason).
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "mutation_seq": self.mutation_seq,
            "fingerprint": self.fingerprint,
            "saved_at": self.saved_at,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "SnapshotMeta":
        if not isinstance(payload, dict):
            raise DataFormatError("snapshot meta must be an object")
        try:
            return cls(
                mutation_seq=int(payload.get("mutation_seq", 0)),
                fingerprint=str(payload.get("fingerprint", "")),
                saved_at=float(payload.get("saved_at", 0.0)),
                extra=dict(payload.get("extra", {})),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"malformed snapshot meta: {exc}") from exc


class SnapshotStore:
    """Atomic save/load of ``(RbacState, SnapshotMeta)`` at one path."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.is_file()

    def save(self, state: RbacState, meta: SnapshotMeta) -> None:
        """Write a snapshot atomically (all-or-previous, never partial)."""
        document = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "meta": meta.to_dict(),
            "state": state_to_dict(state),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            prefix=self.path.name + ".", suffix=".tmp", dir=self.path.parent
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as out:
                json.dump(document, out, sort_keys=True)
                out.flush()
                os.fsync(out.fileno())
            os.replace(temp_name, self.path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def load(self) -> tuple[RbacState, SnapshotMeta]:
        """Read a snapshot back; verifies format and fingerprint."""
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise DataFormatError(
                f"corrupt snapshot {self.path}: {error}"
            ) from error
        if not isinstance(document, dict) or (
            document.get("format") != SNAPSHOT_FORMAT
        ):
            raise DataFormatError(
                f"{self.path} is not a {SNAPSHOT_FORMAT} file"
            )
        if document.get("version") != SNAPSHOT_VERSION:
            raise DataFormatError(
                f"unsupported snapshot version: {document.get('version')!r}"
            )
        state = state_from_dict(document.get("state", {}))
        meta = SnapshotMeta.from_dict(document.get("meta", {}))
        if meta.fingerprint and (
            state.recompute_fingerprint() != meta.fingerprint
        ):
            raise DataFormatError(
                f"snapshot {self.path} failed its fingerprint check "
                "(file corrupted or edited since save)"
            )
        return state, meta
