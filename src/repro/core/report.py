"""Analysis reports: findings, statistics, and renderers.

A :class:`Report` bundles the findings of one analysis run with summary
statistics shaped like the paper's §IV-B narrative (one count per
inefficiency type and axis) and renders to plain text, Markdown, or JSON.

The findings are held as :class:`~repro.core.taxonomy.Findings` parts:
counts and the JSON writer read the columns of the single-entity buckets
(types 1-3) and of the role groups (types 4-5), and
:class:`~repro.core.taxonomy.Finding` objects are built only for the
callers that ask for them (``findings``, ``of_type``, the renderers).
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.entities import EntityKind
from repro.core.state import RbacState
from repro.core.taxonomy import (
    Axis,
    Finding,
    Findings,
    Groups,
    InefficiencyType,
)
from repro.util.jsontext import verbatim_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import AnalysisConfig


class Report:
    """The result of one analysis run."""

    def __init__(
        self,
        state: RbacState,
        findings: Iterable[Finding],
        timings: dict[str, float] | None = None,
        total_seconds: float = 0.0,
        config: "AnalysisConfig | None" = None,
        metrics: dict | None = None,
    ) -> None:
        #: The analysed state's sizes, taken when the report is built, so
        #: the report stays as it was when the state later changes.
        self.dataset: dict[str, int] = {
            "users": state.n_users,
            "roles": state.n_roles,
            "permissions": state.n_permissions,
            "user_assignments": state.n_user_assignments,
            "permission_assignments": state.n_permission_assignments,
        }
        if not isinstance(findings, Findings):
            findings = Findings([list(findings)])
        #: The findings, in detection order, as column parts and records.
        self.parts = findings
        self.timings: dict[str, float] = dict(timings or {})
        self.total_seconds = total_seconds
        self.config = config
        #: Observability summary for the run (see docs/OBSERVABILITY.md):
        #: counter totals, span count, and the worker breakdown.  Empty
        #: when the report was built outside the engine.
        self.metrics: dict = dict(metrics or {})

    @property
    def findings(self) -> list[Finding]:
        """Every finding, in detection order (built on first use)."""
        return self.parts.materialise()

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    @classmethod
    def from_payload(
        cls, payload: dict[str, Any], state: RbacState
    ) -> "Report":
        """Rebuild a report from its :meth:`to_dict` payload.

        Every finding comes back as a :class:`Finding` record
        (:meth:`Finding.from_dict`), so the rebuilt report counts, diffs
        and re-serialises byte-identically.  The payload's derived
        sections (``dataset``, ``counts``, ``consolidation``,
        ``n_findings``) are not read: the dataset sizes come from
        ``state``, the rest from the findings.  Nothing in the service
        uses it; a client reads a job result with ``json.loads``.
        """
        from repro.core.engine import AnalysisConfig

        config_payload = payload.get("config")
        return cls(
            state=state,
            findings=map(Finding.from_dict, payload.get("findings", [])),
            timings=payload.get("timings_seconds", {}),
            total_seconds=payload.get("total_seconds", 0.0),
            config=(
                AnalysisConfig.from_dict(config_payload)
                if config_payload is not None
                else None
            ),
            metrics=payload.get("metrics", {}),
        )

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def of_type(self, kind: InefficiencyType) -> list[Finding]:
        """Findings of one taxonomy type, in detection order."""
        return [f for f in self.findings if f.type is kind]

    def on_axis(
        self, kind: InefficiencyType, axis: Axis
    ) -> list[Finding]:
        """Findings of one type restricted to one axis."""
        return [f for f in self.findings if f.type is kind and f.axis is axis]

    def sorted_findings(self) -> list[Finding]:
        """Findings ordered for administrator review (severity first):
        the order of :func:`~repro.core.taxonomy.sort_findings`."""
        return self._in_review_order(self.findings)

    def _in_review_order(self, rows: list) -> list:
        """Detection-order ``rows`` (one per finding) in review order."""
        return list(map(rows.__getitem__, self.parts.review_order()))

    # ------------------------------------------------------------------
    # Statistics (the paper's §IV-B table shape)
    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """One count per (type, axis/kind) bucket, in paper order.

        Group findings (types 4-5) are counted in *roles involved*, not in
        number of groups, matching how the paper reports "8,000 roles
        sharing the same users".
        """
        return _Tally(self.parts).counts()

    def extension_counts(self) -> dict[str, int]:
        """Counts for extension detectors (outside the paper's table).

        Keys appear regardless of whether the extension detectors ran,
        so dashboards can rely on the shape; values are 0 when disabled.
        """
        return {
            "shadowed_roles": _Tally(self.parts).findings(
                InefficiencyType.SHADOWED_ROLE
            )
        }

    def consolidation_potential(self) -> dict[str, Any]:
        """How many roles consolidation of type-4 groups could remove.

        Keeping one representative per duplicate group removes
        ``group size - 1`` roles; the paper's headline is that this alone
        is ~10% of all roles in the real dataset.
        """
        return _Tally(self.parts).consolidation(self.dataset["roles"])

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def config_dict(self) -> dict[str, Any] | None:
        """The effective analysis configuration, JSON-serialisable.

        ``None`` when the report was built without one.  Rendered in
        JSON and Markdown output so a run is reproducible from its own
        artefacts.
        """
        return self.config.to_dict() if self.config is not None else None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation of the whole report."""
        payload = self._summary()
        payload["findings"] = self._in_review_order(self.parts.dicts())
        return payload

    def encode(self) -> bytes:
        """``json.dumps(self.to_dict(), sort_keys=True)`` in UTF-8.

        Each finding's JSON text comes from :meth:`Findings.texts`: for
        plain ids it is written from a row template, with no dict built
        and no ``json.dumps`` called.  The summary members around them
        are the only values dumped.  The texts and the summary join
        into the whole report in one pass, which is encoded once.
        """
        rows = self._in_review_order(self.parts.texts())
        # JSON text never holds a raw NUL, so one marks the findings' place.
        around = verbatim_json(self._summary(), {"findings": b"\0"})
        head, tail = around.decode("utf-8").split("\0")
        if not rows:
            return f"{head}[]{tail}".encode("utf-8")
        rows[0] = f"{head}[{rows[0]}"
        rows[-1] = f"{rows[-1]}]{tail}"
        return ", ".join(rows).encode("utf-8")

    def _summary(self) -> dict[str, Any]:
        """Every member of :meth:`to_dict` but the findings."""
        tally = _Tally(self.parts)
        return {
            "dataset": dict(self.dataset),
            "config": self.config_dict(),
            "counts": tally.counts(),
            "consolidation": tally.consolidation(self.dataset["roles"]),
            "timings_seconds": dict(self.timings),
            "total_seconds": self.total_seconds,
            "metrics": dict(self.metrics),
            "n_findings": len(self.parts),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self, max_findings: int = 20) -> str:
        """Human-readable summary (the CLI's default output)."""
        dataset = self.dataset
        lines = [
            "RBAC inefficiency report",
            "========================",
            f"dataset: {dataset['users']} users, {dataset['roles']} "
            f"roles, {dataset['permissions']} permissions",
            f"analysis time: {self.total_seconds:.3f}s",
            "",
            "counts by inefficiency:",
        ]
        for key, value in self.counts().items():
            lines.append(f"  {key:<28} {value:>8}")
        consolidation = self.consolidation_potential()
        lines.append("")
        lines.append(
            "consolidating duplicate-role groups could remove up to "
            f"{consolidation['removable_total_upper_bound']} roles "
            f"({consolidation['fraction_of_roles']:.1%} of all roles)"
        )
        if self.config is not None:
            lines.append("")
            lines.append("configuration: " + self._config_summary())
        counters = self.metrics.get("counters") or {}
        if counters:
            workers = self.metrics.get("workers", {})
            lines.append("")
            lines.append(
                f"metrics ({self.metrics.get('spans', 0)} spans, "
                f"{workers.get('mode', 'serial')} mode):"
            )
            for key, value in counters.items():
                lines.append(f"  {key:<34} {value:>10}")
        shown = [
            self.parts.finding(index)
            for index in self.parts.review_order()[:max_findings]
        ]
        if shown:
            lines.append("")
            lines.append(f"top findings (showing {len(shown)} of "
                         f"{len(self.parts)}):")
            for finding in shown:
                lines.append(
                    f"  [{finding.severity.value:>6}] {finding.message}"
                )
        return "\n".join(lines)

    def _config_summary(self) -> str:
        """One-line ``key=value`` rendering of the effective config."""
        payload = self.config_dict() or {}
        parts = []
        for key in (
            "finder",
            "similarity_threshold",
            "axes",
            "n_workers",
            "block_rows",
        ):
            value = payload.get(key)
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            parts.append(f"{key}={value}")
        return " ".join(parts)

    def to_csv(self) -> str:
        """Findings as CSV (one row per finding) for spreadsheet triage.

        Columns: severity, type, axis, entity_kind, entity_ids
        (;-separated), message.
        """
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            ["severity", "type", "axis", "entity_kind", "entity_ids",
             "message"]
        )
        for finding in self.sorted_findings():
            writer.writerow(
                [
                    finding.severity.value,
                    finding.type.value,
                    finding.axis.value if finding.axis else "",
                    finding.entity_kind.value,
                    ";".join(finding.entity_ids),
                    finding.message,
                ]
            )
        return buffer.getvalue()

    def to_markdown(self) -> str:
        """Markdown rendering with the counts as a table."""
        dataset = self.dataset
        lines = [
            "# RBAC inefficiency report",
            "",
            f"- **Users:** {dataset['users']}",
            f"- **Roles:** {dataset['roles']}",
            f"- **Permissions:** {dataset['permissions']}",
            f"- **Analysis time:** {self.total_seconds:.3f}s",
            "",
            "| Inefficiency | Count |",
            "|---|---:|",
        ]
        for key, value in self.counts().items():
            lines.append(f"| {key.replace('_', ' ')} | {value} |")
        consolidation = self.consolidation_potential()
        lines.append("")
        lines.append(
            f"Consolidation could remove up to "
            f"**{consolidation['removable_total_upper_bound']}** roles "
            f"({consolidation['fraction_of_roles']:.1%})."
        )
        config = self.config_dict()
        if config is not None:
            lines.append("")
            lines.append("## Configuration")
            lines.append("")
            lines.append("| Option | Value |")
            lines.append("|---|---|")
            for key, value in config.items():
                if isinstance(value, list):
                    value = ", ".join(str(v) for v in value)
                elif isinstance(value, dict):
                    value = json.dumps(value, sort_keys=True)
                lines.append(f"| {key} | {value} |")
        counters = self.metrics.get("counters") or {}
        if counters:
            lines.append("")
            lines.append("## Metrics")
            lines.append("")
            lines.append("| Counter | Total |")
            lines.append("|---|---:|")
            for key, value in counters.items():
                lines.append(f"| {key} | {value} |")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Report(findings={len(self.parts)}, "
            f"total_seconds={self.total_seconds:.3f})"
        )


_RECORD_KEY = attrgetter("type", "entity_kind", "axis")
_ENTITY_IDS = attrgetter("entity_ids")


class _Tally:
    """Every count of a report from one pass over its parts: findings
    per ``(type, entity kind, axis)``, roles per ``(type, axis)`` of the
    role groups and records, and removable roles per axis."""

    def __init__(self, parts: Findings) -> None:
        findings: Counter[tuple] = Counter()
        roles: Counter[tuple] = Counter()
        removable = {Axis.USERS: 0, Axis.PERMISSIONS: 0}
        for part in parts.columns():
            spec = part.spec
            findings[spec.type, spec.entity_kind, spec.axis] += len(part)
            if isinstance(part, Groups):
                roles[spec.type, spec.axis] += len(part.ids)
                if spec.type is InefficiencyType.DUPLICATE_ROLES:
                    removable[spec.axis] += len(part.ids) - len(part)
        # Records come in runs of one detector's findings: one key (and
        # one hash of its enum members) per run, not per record.
        for key, run in groupby(parts.records(), _RECORD_KEY):
            run = list(run)
            kind, _, axis = key
            findings[key] += len(run)
            roles[kind, axis] += sum(map(len, map(_ENTITY_IDS, run)))
            if kind is InefficiencyType.DUPLICATE_ROLES and axis in removable:
                removable[axis] += sum(
                    f.group.redundant_count for f in run if f.group is not None
                )
        self._findings = findings
        self._roles = roles
        self._removable = removable

    def findings(
        self,
        kind: InefficiencyType,
        entity_kind: EntityKind | None = None,
        axis: Axis | None = None,
    ) -> int:
        """Findings of ``kind``, of ``entity_kind`` and on ``axis`` where
        given."""
        return sum(
            count
            for (type_, kind_of, axis_of), count in self._findings.items()
            if type_ is kind
            and entity_kind in (None, kind_of)
            and axis in (None, axis_of)
        )

    def counts(self) -> dict[str, int]:
        """:meth:`Report.counts`."""
        standalone = InefficiencyType.STANDALONE_NODE
        disconnected = InefficiencyType.DISCONNECTED_ROLE
        single = InefficiencyType.SINGLE_ASSIGNMENT_ROLE
        duplicate = InefficiencyType.DUPLICATE_ROLES
        similar = InefficiencyType.SIMILAR_ROLES
        roles = self._roles
        return {
            "standalone_users": self.findings(standalone, EntityKind.USER),
            "standalone_permissions": self.findings(
                standalone, EntityKind.PERMISSION
            ),
            "standalone_roles": self.findings(standalone, EntityKind.ROLE),
            "roles_without_users": self.findings(
                disconnected, axis=Axis.USERS
            ),
            "roles_without_permissions": self.findings(
                disconnected, axis=Axis.PERMISSIONS
            ),
            "single_user_roles": self.findings(single, axis=Axis.USERS),
            "single_permission_roles": self.findings(
                single, axis=Axis.PERMISSIONS
            ),
            "roles_same_users": roles[duplicate, Axis.USERS],
            "roles_same_permissions": roles[duplicate, Axis.PERMISSIONS],
            "roles_similar_users": roles[similar, Axis.USERS],
            "roles_similar_permissions": roles[similar, Axis.PERMISSIONS],
        }

    def consolidation(self, n_roles: int) -> dict[str, Any]:
        """:meth:`Report.consolidation_potential` for ``n_roles`` roles."""
        removable_users = self._removable[Axis.USERS]
        removable_permissions = self._removable[Axis.PERMISSIONS]
        total = removable_users + removable_permissions
        return {
            "removable_via_same_users": removable_users,
            "removable_via_same_permissions": removable_permissions,
            "removable_total_upper_bound": total,
            "total_roles": n_roles,
            "fraction_of_roles": (total / n_roles) if n_roles else 0.0,
        }
