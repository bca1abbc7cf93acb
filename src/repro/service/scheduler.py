"""Background refresh: periodic full analysis + report diffing.

The incremental auditor keeps *counts* current per mutation, but the
full report (findings, severities, consolidation potential) is only as
fresh as the last complete analysis.  The scheduler closes that gap: a
background thread re-runs the full analysis once ``refresh_mutations``
mutations have accumulated or ``refresh_seconds`` have elapsed with
pending changes — whichever comes first — and publishes the new report
together with a :class:`~repro.core.reportdiff.ReportDiff` against the
previous run, which is exactly what a reviewer polls
(``GET /v1/reports/latest``).

A refresh with zero pending mutations is skipped: an unchanged state
cannot change the report (and would be a cache hit anyway).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.core.report import Report
from repro.core.reportdiff import ReportDiff, diff_reports
from repro.exceptions import ConfigurationError

__all__ = ["RefreshScheduler"]

class RefreshScheduler:
    """Re-runs full analysis after N mutations or T seconds.

    ``runner`` analyses the current live state and returns ``(report,
    fingerprint, mutation_seq)``.
    """

    def __init__(
        self,
        runner: Callable[[], tuple[Report, str, int]],
        refresh_mutations: int | None = None,
        refresh_seconds: float | None = None,
    ) -> None:
        if refresh_mutations is not None and refresh_mutations < 1:
            raise ConfigurationError(
                "refresh_mutations must be >= 1 or None "
                f"(got {refresh_mutations})"
            )
        # Chained so that nan fails too; the upper end is the longest
        # wait a thread can make (inf would overflow it).
        if refresh_seconds is not None and not (
            0 < refresh_seconds <= threading.TIMEOUT_MAX
        ):
            raise ConfigurationError(
                f"refresh_seconds must be in (0, {threading.TIMEOUT_MAX:g}] "
                f"or None (got {refresh_seconds})"
            )
        self._runner = runner
        self.refresh_mutations = refresh_mutations
        self.refresh_seconds = refresh_seconds
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._pending = 0
        self._last_run = time.monotonic()
        # Published results (guarded by _cond's lock): the diff baseline
        # and the latest payload, built once when it is published.
        self._seq = 0
        self._latest_report: Report | None = None
        self._latest: dict[str, Any] | None = None
        self.runs = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether any refresh trigger is configured."""
        return (
            self.refresh_mutations is not None
            or self.refresh_seconds is not None
        )

    def start(self) -> None:
        """Start the background thread (no-op when no trigger is set)."""
        if not self.enabled or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Signal the loop to exit and join it."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def notify_mutations(self, count: int) -> None:
        """Record ``count`` freshly-applied mutations; may trigger a run."""
        if count <= 0:
            return
        with self._cond:
            self._pending += count
            self._cond.notify_all()

    def prime(self, report: Report, fingerprint: str, mutation_seq: int) -> None:
        """Install an opening report as the baseline (no diff yet)."""
        payload = self._payload(report, fingerprint, mutation_seq, diff=None)
        with self._cond:
            self._publish(report, payload)

    def run_once(self) -> None:
        """Run one refresh synchronously, on the calling thread."""
        self._refresh()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def latest(self) -> dict[str, Any] | None:
        """The latest published report + diff as a JSON-ready payload."""
        with self._cond:
            if self._latest is None:
                return None
            return {
                "seq": self._seq,
                **self._latest,
                "pending_mutations": self._pending,
            }

    def stats(self) -> dict[str, Any]:
        with self._cond:
            return {
                "enabled": self.enabled,
                "runs": self.runs,
                "errors": self.errors,
                "pending_mutations": self._pending,
                "published_seq": self._seq,
            }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _payload(
        report: Report,
        fingerprint: str,
        mutation_seq: int,
        diff: ReportDiff | None,
    ) -> dict[str, Any]:
        """The published part of ``latest()``; built without the lock."""
        return {
            "mutation_seq": mutation_seq,
            "fingerprint": fingerprint,
            "counts": report.counts(),
            "n_findings": len(report.parts),
            "diff": diff.to_dict() if diff is not None else None,
        }

    def _publish(self, report: Report, payload: dict[str, Any]) -> None:
        """Install a report and its payload (call with the lock held)."""
        self._seq += 1
        self._latest_report = report
        self._latest = payload

    def _refresh(self) -> None:
        with self._cond:
            self._pending = 0
            self._last_run = time.monotonic()
            previous = self._latest_report
        try:
            report, fingerprint, mutation_seq = self._runner()
        except Exception:
            with self._cond:
                self.errors += 1
            return
        diff = diff_reports(previous, report) if previous is not None else None
        payload = self._payload(report, fingerprint, mutation_seq, diff)
        with self._cond:
            self.runs += 1
            self._publish(report, payload)

    def _due(self, now: float) -> bool:
        """Whether a refresh should run now (call with the lock held)."""
        if self._pending <= 0:
            return False
        if (
            self.refresh_mutations is not None
            and self._pending >= self.refresh_mutations
        ):
            return True
        return (
            self.refresh_seconds is not None
            and now - self._last_run >= self.refresh_seconds
        )

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and not self._due(time.monotonic()):
                    if self.refresh_seconds is not None and self._pending > 0:
                        remaining = self.refresh_seconds - (
                            time.monotonic() - self._last_run
                        )
                        self._cond.wait(max(remaining, 0.01))
                    else:
                        self._cond.wait()
                if self._stopping:
                    return
            self._refresh()
