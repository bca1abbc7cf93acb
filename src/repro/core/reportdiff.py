"""Diffing two analysis reports — the periodic-run workflow.

The paper's framework is meant to run periodically; what an operator
actually reviews week over week is the *delta*: which inefficiencies are
new, which were resolved, and how the counts are trending.
:func:`diff_reports` computes exactly that.

Findings are matched by a stable identity key (type, axis, affected
entity ids), so a duplicate group keeps its identity as long as its
membership is unchanged, and count deltas line up with the
``Report.counts()`` buckets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.report import Report
from repro.core.taxonomy import Bucket, Finding, Findings, sort_findings

#: Stable identity of a finding across runs.
FindingKey = tuple[str, str, tuple[str, ...]]


def finding_key(finding: Finding) -> FindingKey:
    """The identity under which findings are matched across reports."""
    return (
        finding.type.value,
        finding.axis.value if finding.axis else "",
        tuple(sorted(finding.entity_ids)),
    )


@dataclass
class ReportDiff:
    """The difference between an older and a newer report."""

    new_findings: list[Finding] = field(default_factory=list)
    resolved_findings: list[Finding] = field(default_factory=list)
    persisting_count: int = 0
    count_deltas: dict[str, int] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        """True when nothing changed between the runs."""
        return (
            not self.new_findings
            and not self.resolved_findings
            and all(delta == 0 for delta in self.count_deltas.values())
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "new": [f.to_dict() for f in self.new_findings],
            "resolved": [f.to_dict() for f in self.resolved_findings],
            "persisting": self.persisting_count,
            "count_deltas": dict(self.count_deltas),
        }

    def to_text(self, max_listed: int = 10) -> str:
        """Human-readable delta summary."""
        lines = [
            "analysis delta",
            "==============",
            f"new findings:       {len(self.new_findings)}",
            f"resolved findings:  {len(self.resolved_findings)}",
            f"persisting:         {self.persisting_count}",
            "",
            "count deltas (new - old):",
        ]
        for key, delta in self.count_deltas.items():
            marker = "+" if delta > 0 else ""
            lines.append(f"  {key:<28} {marker}{delta}")
        if self.new_findings:
            lines.append("")
            lines.append("new:")
            for finding in self.new_findings[:max_listed]:
                lines.append(f"  + {finding.message}")
            if len(self.new_findings) > max_listed:
                lines.append(
                    f"  … and {len(self.new_findings) - max_listed} more"
                )
        if self.resolved_findings:
            lines.append("")
            lines.append("resolved:")
            for finding in self.resolved_findings[:max_listed]:
                lines.append(f"  - {finding.message}")
            if len(self.resolved_findings) > max_listed:
                lines.append(
                    f"  … and {len(self.resolved_findings) - max_listed} more"
                )
        return "\n".join(lines)


def diff_reports(old: Report, new: Report) -> ReportDiff:
    """Compare two reports (typically successive periodic runs).

    Both reports should come from the same analysis configuration;
    otherwise "new"/"resolved" mostly reflects the configuration change.
    Keys are read from the column parts; only the new and resolved
    findings are built.
    """
    old_by_key = _by_key(old.parts)
    new_by_key = _by_key(new.parts)

    new_keys = new_by_key.keys() - old_by_key.keys()
    resolved_keys = old_by_key.keys() - new_by_key.keys()
    persisting = len(new_by_key.keys() & old_by_key.keys())

    old_counts = old.counts()
    new_counts = new.counts()
    deltas = {
        key: new_counts[key] - old_counts.get(key, 0) for key in new_counts
    }

    return ReportDiff(
        new_findings=sort_findings(
            [_finding(new_by_key[key]) for key in new_keys]
        ),
        resolved_findings=sort_findings(
            [_finding(old_by_key[key]) for key in resolved_keys]
        ),
        persisting_count=persisting,
        count_deltas=deltas,
    )


def _by_key(findings: Findings) -> dict[FindingKey, Any]:
    """Each finding's key, to the finding itself (a record) or to its
    ``(part, row)`` in a column part; of findings with equal keys the last
    one counts."""
    by_key: dict[FindingKey, Any] = {}
    for part in findings.parts:
        if isinstance(part, list):
            by_key.update((finding_key(f), f) for f in part)
            continue
        spec = part.spec
        type_, axis = spec.type.value, spec.axis.value if spec.axis else ""
        ids = (
            zip(part.ids)  # one id per row: sorted already
            if isinstance(part, Bucket)
            else map(tuple, map(sorted, part.entity_ids()))
        )
        by_key.update(
            ((type_, axis, key), (part, row)) for row, key in enumerate(ids)
        )
    return by_key


def _finding(located: Any) -> Finding:
    if isinstance(located, Finding):
        return located
    part, row = located
    return part.finding(row)
