"""Wire protocol of the analysis service.

Everything the HTTP layer shares with clients lives here: the mutation
vocabulary of ``POST /v1/mutations``, batch parsing and *atomic*
validation (a batch either applies in full or is rejected with no state
change), the analysis-request overrides of ``POST /v1/analyze``, and the
service-level exceptions the server maps to HTTP status codes.

The mutation vocabulary mirrors :class:`repro.core.incremental.
IncrementalAuditor` one-to-one, so an accepted batch is applied through
the auditor and keeps the live inefficiency counts current in time
proportional to the change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.core.engine import EXTENSION_TYPES, SCAN_KEYS, AnalysisConfig
from repro.core.incremental import IncrementalAuditor
from repro.core.state import RbacState
from repro.exceptions import ConfigurationError, ReproError

__all__ = [
    "Mutation",
    "MUTATION_OPS",
    "ProtocolError",
    "DeadlineExceeded",
    "ServiceSaturated",
    "ServiceDraining",
    "parse_mutation_batch",
    "validate_batch",
    "apply_batch",
    "build_analysis_config",
    "config_key",
]


class ProtocolError(ReproError):
    """A request body violates the wire protocol (HTTP 400)."""


class DeadlineExceeded(ReproError):
    """A request's deadline elapsed before its result was ready (504)."""


class ServiceSaturated(ReproError):
    """The bounded request queue is full — back off and retry (429)."""


class ServiceDraining(ReproError):
    """The service is shutting down and accepts no new work (503)."""


#: op name -> required string fields (beyond ``op`` itself).
MUTATION_OPS: dict[str, tuple[str, ...]] = {
    "add_user": ("id",),
    "add_role": ("id",),
    "add_permission": ("id",),
    "remove_user": ("id",),
    "remove_role": ("id",),
    "remove_permission": ("id",),
    "assign_user": ("role", "user"),
    "revoke_user": ("role", "user"),
    "assign_permission": ("role", "permission"),
    "revoke_permission": ("role", "permission"),
}


@dataclass(frozen=True)
class Mutation:
    """One parsed mutation of a ``POST /v1/mutations`` batch."""

    op: str
    #: Field values in the order declared by :data:`MUTATION_OPS`.
    args: tuple[str, ...]

    def to_dict(self) -> dict[str, str]:
        payload = {"op": self.op}
        for name, value in zip(MUTATION_OPS[self.op], self.args):
            payload[name] = value
        return payload


def parse_mutation_batch(document: Any) -> list[Mutation]:
    """Parse and shape-check a mutation-batch document.

    Expects ``{"mutations": [{"op": ..., <fields>}, ...]}``.  Raises
    :class:`ProtocolError` (with the offending index) on any shape
    problem; referential validity is checked separately by
    :func:`validate_batch`.
    """
    if not isinstance(document, Mapping):
        raise ProtocolError("expected a JSON object at the top level")
    raw = document.get("mutations")
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ProtocolError('expected a "mutations" array')
    mutations: list[Mutation] = []
    for index, item in enumerate(raw):
        if not isinstance(item, Mapping):
            raise ProtocolError(f"mutation {index}: expected an object")
        op = item.get("op")
        if op not in MUTATION_OPS:
            raise ProtocolError(
                f"mutation {index}: unknown op {op!r} "
                f"(expected one of {sorted(MUTATION_OPS)})"
            )
        args = []
        for field in MUTATION_OPS[op]:
            value = item.get(field)
            if not isinstance(value, str) or not value:
                raise ProtocolError(
                    f"mutation {index}: op {op!r} requires a non-empty "
                    f"string field {field!r}"
                )
            args.append(value)
        mutations.append(Mutation(op=op, args=tuple(args)))
    return mutations


def validate_batch(
    state: RbacState, mutations: Iterable[Mutation]
) -> None:
    """Check a batch against ``state`` without mutating anything.

    Simulates only entity-id membership (all the auditor's mutation
    vocabulary can violate — edge operations are idempotent), taking
    earlier mutations of the same batch into account.  Raising here is
    what makes batch application atomic: the server applies a batch
    only after it validated in full, so a rejected batch leaves the live
    state untouched.  The cost is O(batch): ids the batch adds or
    removes are tracked on the side, all others are looked up in
    ``state``.
    """
    exists = {
        "user": state.has_user,
        "role": state.has_role,
        "permission": state.has_permission,
    }
    # kind -> id -> present after the batch's mutations so far.
    changed: dict[str, dict[str, bool]] = {kind: {} for kind in exists}

    def present(kind: str, identifier: str) -> bool:
        known = changed[kind].get(identifier)
        return exists[kind](identifier) if known is None else known

    def require(kind: str, identifier: str, index: int) -> None:
        if not present(kind, identifier):
            raise ProtocolError(
                f"mutation {index}: unknown {kind} {identifier!r}"
            )

    for index, mutation in enumerate(mutations):
        op, args = mutation.op, mutation.args
        if op.startswith("add_"):
            kind = op[len("add_"):]
            if present(kind, args[0]):
                raise ProtocolError(
                    f"mutation {index}: duplicate {kind} {args[0]!r}"
                )
            changed[kind][args[0]] = True
        elif op.startswith("remove_"):
            kind = op[len("remove_"):]
            require(kind, args[0], index)
            changed[kind][args[0]] = False
        else:  # assign_* / revoke_*
            target_kind = op.split("_", 1)[1]
            require("role", args[0], index)
            require(target_kind, args[1], index)


def apply_batch(
    auditor: IncrementalAuditor, mutations: Iterable[Mutation]
) -> int:
    """Apply a validated batch through the auditor; returns ops applied.

    Callers must hold the service's state lock and must have run
    :func:`validate_batch` against the same state first.
    """
    applied = 0
    for mutation in mutations:
        getattr(auditor, mutation.op)(*mutation.args)
        applied += 1
    return applied


#: Overrides accepted in a ``POST /v1/analyze`` body.
_ANALYZE_OVERRIDES = (
    "finder",
    "similarity_threshold",
    "extensions",
    "n_workers",
    "block_rows",
)


def build_analysis_config(
    base: AnalysisConfig, overrides: Mapping[str, Any] | None = None
) -> AnalysisConfig:
    """The effective config for one analyze request.

    ``base`` is the service's configured default; ``overrides`` is the
    (already JSON-decoded) request body.  Unknown keys are rejected so
    typos fail loudly instead of silently analysing with defaults.
    """
    if not overrides:
        return base
    if not isinstance(overrides, Mapping):
        raise ProtocolError("expected a JSON object of analyze overrides")
    unknown = sorted(set(overrides) - set(_ANALYZE_OVERRIDES))
    if unknown:
        raise ProtocolError(
            f"unknown analyze option(s): {', '.join(unknown)} "
            f"(expected a subset of {', '.join(_ANALYZE_OVERRIDES)})"
        )
    options = dict(
        finder=overrides.get("finder", base.finder),
        similarity_threshold=overrides.get(
            "similarity_threshold", base.similarity_threshold
        ),
        n_workers=overrides.get("n_workers", base.n_workers),
        block_rows=overrides.get("block_rows", base.block_rows),
        # The config fields own the scan shape; a copy of it here could
        # only conflict with a scan override.
        finder_options=_without_scan_keys(base.finder_options),
        axes=base.axes,
        collapse_duplicates=base.collapse_duplicates,
        enabled_types=base.enabled_types,
    )
    if "extensions" in overrides:
        extensions = overrides["extensions"]
        if not isinstance(extensions, bool):
            raise ProtocolError('"extensions" must be a boolean')
        # Toggle only the extension types; the base's paper types stay.
        paper_types = tuple(
            t for t in base.enabled_types if t not in EXTENSION_TYPES
        )
        options["enabled_types"] = (
            paper_types + EXTENSION_TYPES if extensions else paper_types
        )
    try:
        return AnalysisConfig(**options)
    except (ConfigurationError, TypeError) as error:
        raise ProtocolError(f"invalid analyze options: {error}") from error


def config_key(config: AnalysisConfig) -> str:
    """Canonical string identity of an effective analysis configuration.

    Combined with :meth:`RbacState.fingerprint` it forms the report-cache
    key: two requests share a cache entry exactly when they would run
    the same analysis over the same content.  Worker count and block
    size are *excluded* — they change how the analysis is
    executed, never its result (the engine's parity guarantees), so a
    report computed with one execution layout is valid for every other.
    """
    payload = config.to_dict()
    for key in SCAN_KEYS:
        payload.pop(key)
    payload["finder_options"] = _without_scan_keys(config.finder_options)
    return json.dumps(payload, sort_keys=True)


def _without_scan_keys(finder_options: Mapping[str, Any]) -> dict[str, Any]:
    """``finder_options`` minus the scan-shape keys the config owns."""
    return {k: v for k, v in finder_options.items() if k not in SCAN_KEYS}
