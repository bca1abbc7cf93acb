"""Detector interface and the shared analysis context.

The paper computes RUAM/RPAM and their row/column sums once and reuses
them across inefficiency types (§III-B).  :class:`AnalysisContext` is that
shared computation: detectors pull the matrices from it, and the first
access builds them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from functools import cached_property

from repro.core.matrices import AssignmentMatrix
from repro.core.state import RbacState
from repro.core.taxonomy import Finding


class AnalysisContext:
    """An RBAC state, its lazily-built matrices, and the scan shape
    (``block_rows``, ``n_workers``) every axis scans with."""

    def __init__(
        self,
        state: RbacState,
        block_rows: int | None = None,
        n_workers: int = 1,
    ) -> None:
        self.state = state
        self.block_rows = block_rows
        self.n_workers = n_workers

    @cached_property
    def ruam(self) -> AssignmentMatrix:
        """Role-User Assignment Matrix (built on first access)."""
        return AssignmentMatrix.ruam(self.state)

    @cached_property
    def rpam(self) -> AssignmentMatrix:
        """Role-Permission Assignment Matrix (built on first access)."""
        return AssignmentMatrix.rpam(self.state)

    @cached_property
    def workspace(self):
        """Shared per-axis artifact workspace (built on first access).

        A cached property, so every detector run over this context reads
        the same warmed artifacts.  See :mod:`repro.core.workspace`.
        """
        from repro.core.workspace import AnalysisWorkspace

        return AnalysisWorkspace(self)


class Detector(ABC):
    """Detects one inefficiency type over an :class:`AnalysisContext`."""

    #: Stable identifier used in reports and the CLI.
    name: str = ""

    @abstractmethod
    def detect(self, context: AnalysisContext) -> Sequence[Finding]:
        """Return all findings of this detector's type.

        A list of records, or :class:`~repro.core.taxonomy.Findings`
        whose buckets hold single-entity findings as columns.
        Implementations must be read-only with respect to the state and
        deterministic: equal inputs yield equal findings in equal order.
        """

    def warm(self, context: AnalysisContext) -> None:
        """Pre-build (or request) the workspace artifacts detection reads.

        The engine calls this for every enabled detector *before* any
        ``detect`` runs, then flushes the aggregated scan requests — the
        two-phase protocol that lets duplicates, similar, and shadowed
        share a single co-occurrence pass per axis.  Must not raise on
        configurations ``detect`` would reject (errors keep surfacing at
        detection time).  The default warms nothing; detection must work
        identically on a cold workspace.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
