"""Analysis engine: run the detector suite over an RBAC state.

The engine wires the taxonomy together: it instantiates one detector per
enabled inefficiency type (sharing a single group-finder configuration for
types 4 and 5), runs them over a shared :class:`AnalysisContext`, and
collects findings plus per-detector wall-clock timings into a
:class:`~repro.core.report.Report`.

Parallel execution
------------------
Detectors always run in-process, one after the other.  The only
parallel step is the blocked co-occurrence scan of the warm phase — the
paper's ``C = M·Mᵀ``, reduced block by block (§III-C).  Its shape
(``block_rows``, ``n_workers``) is set once per analysis on the
:class:`AnalysisContext`: with ``n_workers > 1`` and more than one row
block, the blocks run on a per-scan thread pool inside this process.
Blocks are reduced and concatenated in block order, so the report —
findings, ordering, and ``counts()`` — is identical for every worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.detectors import (
    AnalysisContext,
    Detector,
    DisconnectedRoleDetector,
    DuplicateRolesDetector,
    SimilarRolesDetector,
    SingleAssignmentDetector,
    StandaloneNodeDetector,
)
from repro.core.grouping.cooccurrence import (
    resolve_workers,
    validate_workers,
)
from repro.core.report import Report
from repro.core.state import RbacState
from repro.core.taxonomy import Axis, Findings, InefficiencyType
from repro.exceptions import ConfigurationError
from repro.obs import (
    GC_PAUSE,
    NullRecorder,
    Recorder,
    current_recorder,
    use_recorder,
)
from repro.obs.spans import counter_totals, span_count

#: All five taxonomy types, in paper order.
ALL_TYPES: tuple[InefficiencyType, ...] = (
    InefficiencyType.STANDALONE_NODE,
    InefficiencyType.DISCONNECTED_ROLE,
    InefficiencyType.SINGLE_ASSIGNMENT_ROLE,
    InefficiencyType.DUPLICATE_ROLES,
    InefficiencyType.SIMILAR_ROLES,
)

#: Extension detectors beyond the paper's taxonomy (opt-in).
EXTENSION_TYPES: tuple[InefficiencyType, ...] = (
    InefficiencyType.SHADOWED_ROLE,
)

#: The scan shape: how the blocked co-occurrence product runs, never
#: what it finds.  Owned by :class:`AnalysisConfig` alone.
SCAN_KEYS: tuple[str, ...] = ("block_rows", "n_workers")

#: ``kernel`` values that configs written by earlier versions (queued
#: jobs, stored reports) may carry.  The kernel never changed a result,
#: so :meth:`AnalysisConfig.from_dict` drops them; any other value
#: (``"bits"`` included) is rejected.
_LEGACY_KERNELS = ("auto", "sparse")


@dataclass(frozen=True)
class AnalysisConfig:
    """Configuration for a full inefficiency analysis.

    Parameters
    ----------
    enabled_types:
        Which taxonomy types to detect (all five by default).
    finder:
        Group-finder name for types 4-5: ``"cooccurrence"`` (default,
        the paper's algorithm), ``"dbscan"``, ``"hnsw"``, or ``"hash"``.
    finder_options:
        Extra keyword arguments for the finder factory (e.g. HNSW ``m``).
        For the co-occurrence finder a ``block_rows`` or ``n_workers``
        entry must equal the engine-level field of the same name (a
        conflicting value raises :class:`ConfigurationError`): the scan
        shape has one owner, this config.
    similarity_threshold:
        The administrator threshold k for type 5 (default 1 — "all but
        one", as in the paper's real-data experiment).
    axes:
        Axes analysed by types 4-5; both by default.
    collapse_duplicates:
        Whether type 5 collapses exact duplicates before grouping.
    n_workers:
        Threads for the blocked co-occurrence scan: ``1`` (default)
        scans on the calling thread; ``None`` uses every usable CPU.
        Resolved once per analysis and carried by the
        :class:`~repro.core.detectors.base.AnalysisContext` to every
        axis scan, whatever the finder.  Blocks fan out only when there
        is more than one (see ``block_rows``); detectors always run on
        the calling thread.  No scan starts more threads than the
        process may use CPUs.  The report is identical for every value.
    block_rows:
        Row-block size of the blocked co-occurrence product (``None`` =
        one monolithic block per axis).
    """

    enabled_types: tuple[InefficiencyType, ...] = ALL_TYPES
    finder: str = "cooccurrence"
    finder_options: dict = field(default_factory=dict)
    similarity_threshold: int = 1
    axes: tuple[Axis, ...] = (Axis.USERS, Axis.PERMISSIONS)
    collapse_duplicates: bool = True
    n_workers: int | None = 1
    block_rows: int | None = None

    @classmethod
    def with_extensions(cls, **kwargs) -> "AnalysisConfig":
        """A configuration with the paper's five types plus every
        extension detector (currently: shadowed roles)."""
        kwargs.setdefault("enabled_types", ALL_TYPES + EXTENSION_TYPES)
        return cls(**kwargs)

    def __post_init__(self) -> None:
        if self.similarity_threshold < 1:
            raise ConfigurationError(
                "similarity_threshold must be >= 1 "
                f"(got {self.similarity_threshold})"
            )
        unknown = [
            t for t in self.enabled_types if not isinstance(t, InefficiencyType)
        ]
        if unknown:
            raise ConfigurationError(f"not inefficiency types: {unknown!r}")
        # Single source of truth shared with the scan, so the
        # error message is identical wherever n_workers is validated.
        validate_workers(self.n_workers)
        if self.block_rows is not None and self.block_rows < 1:
            raise ConfigurationError(
                f"block_rows must be >= 1 or None, got {self.block_rows}"
            )
        if self.finder == "cooccurrence":
            for key in SCAN_KEYS:
                owned = getattr(self, key)
                value = self.finder_options.get(key, owned)
                if value != owned:
                    raise ConfigurationError(
                        f"finder_options[{key!r}]={value!r} conflicts with "
                        f"{key}={owned!r}; set {key} on the config only"
                    )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable view of the effective configuration.

        Rendered into reports (``Report.to_json`` / ``to_markdown``) so
        a run is reproducible from its own output.
        """
        return {
            "enabled_types": [t.value for t in self.enabled_types],
            "finder": self.finder,
            "finder_options": dict(self.finder_options),
            "similarity_threshold": self.similarity_threshold,
            "axes": [axis.value for axis in self.axes],
            "collapse_duplicates": self.collapse_duplicates,
            "n_workers": self.n_workers,
            "block_rows": self.block_rows,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AnalysisConfig":
        """Rebuild a configuration from its :meth:`to_dict` payload.

        The inverse that lets an analysis cross a process (or machine)
        boundary as JSON — the job plane ships configs this way — with
        ``__post_init__`` re-validating on the far side.  Unknown keys
        are rejected so schema drift fails loudly.

        Payloads written while the config still had a ``kernel`` field
        (queued jobs, stored reports) stay readable: a ``"kernel"`` of
        ``"auto"`` or ``"sparse"`` is dropped, as results never depended
        on it; any other value, and a ``kernel`` finder option, raise
        :class:`ConfigurationError`.
        """
        options = dict(payload)
        kernel = options.pop("kernel", "auto")
        if kernel not in _LEGACY_KERNELS:
            raise ConfigurationError(
                f"kernel {kernel!r} is no longer supported; the scan "
                "always uses the sparse kernel"
            )
        if "kernel" in (options.get("finder_options") or {}):
            raise ConfigurationError(
                "finder_options['kernel'] is no longer supported"
            )
        known = {
            "enabled_types", "finder", "finder_options",
            "similarity_threshold", "axes", "collapse_duplicates",
            "n_workers", "block_rows",
        }
        unknown = sorted(set(options) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown analysis-config key(s): {', '.join(unknown)}"
            )
        try:
            if "enabled_types" in options:
                options["enabled_types"] = tuple(
                    InefficiencyType(value)
                    for value in options["enabled_types"]
                )
            if "axes" in options:
                options["axes"] = tuple(
                    Axis(value) for value in options["axes"]
                )
        except ValueError as error:
            raise ConfigurationError(str(error)) from error
        return cls(**options)


class AnalysisEngine:
    """Runs the configured detectors and assembles a report."""

    def __init__(self, config: AnalysisConfig | None = None) -> None:
        self.config = config or AnalysisConfig()
        self._detectors = self._build_detectors(self.config)

    @staticmethod
    def _build_detectors(config: AnalysisConfig) -> list[Detector]:
        from repro.core.grouping import make_group_finder

        finder_options = config.finder_options
        detectors: list[Detector] = []
        enabled = set(config.enabled_types)
        if InefficiencyType.STANDALONE_NODE in enabled:
            detectors.append(StandaloneNodeDetector())
        if InefficiencyType.DISCONNECTED_ROLE in enabled:
            detectors.append(DisconnectedRoleDetector())
        if InefficiencyType.SINGLE_ASSIGNMENT_ROLE in enabled:
            detectors.append(SingleAssignmentDetector())
        if InefficiencyType.DUPLICATE_ROLES in enabled:
            detectors.append(
                DuplicateRolesDetector(
                    finder=make_group_finder(config.finder, **finder_options),
                    axes=config.axes,
                )
            )
        if InefficiencyType.SIMILAR_ROLES in enabled:
            detectors.append(
                SimilarRolesDetector(
                    max_differences=config.similarity_threshold,
                    finder=make_group_finder(config.finder, **finder_options),
                    axes=config.axes,
                    collapse_duplicates=config.collapse_duplicates,
                )
            )
        if InefficiencyType.SHADOWED_ROLE in enabled:
            from repro.core.detectors.shadowed import ShadowedRoleDetector

            detectors.append(ShadowedRoleDetector())
        return detectors

    @property
    def detectors(self) -> list[Detector]:
        """The detector instances this engine will run (in order)."""
        return list(self._detectors)

    def analyze(
        self, state: RbacState, recorder: Recorder | None = None
    ) -> Report:
        """Run every enabled detector over ``state``.

        Detection is read-only: the state is not modified, and findings
        are never applied automatically (§III-A: every instance must be
        reviewed by an administrator).

        ``recorder`` receives the run's trace (span tree + counters);
        pass a :class:`repro.obs.Recorder` wired to sinks to export it.
        Without one, a recorder already installed via
        :func:`repro.obs.use_recorder` is adopted (so callers like
        ``benchharness.time_call`` capture engine spans under their own);
        failing that the engine records into a private sink-less recorder.
        Either way the tree is what populates ``Report.timings`` (the
        span durations, same keys as before) and ``Report.metrics``.
        """
        if recorder is None:
            recorder = current_recorder()
        if isinstance(recorder, NullRecorder):
            # Engine-level spans are mandatory: timings and metrics are
            # part of the Report contract.  A sink-less recorder is a
            # handful of dict/list operations per detector — the no-op
            # recorder exists for bare library calls, not for the engine.
            recorder = Recorder()
        n_workers = resolve_workers(self.config.n_workers)
        # The one owner of the scan shape for this analysis: every axis
        # workspace the detectors touch scans with it.
        context = AnalysisContext(
            state, block_rows=self.config.block_rows, n_workers=n_workers
        )
        findings = Findings()
        timings: dict[str, float] = {}
        with use_recorder(recorder):
            with recorder.span(
                "engine.analyze",
                finder=self.config.finder,
                n_workers=n_workers,
                n_roles=state.n_roles,
                n_users=state.n_users,
                n_permissions=state.n_permissions,
            ) as root:
                # Build RUAM/RPAM up front so matrix-construction cost is
                # attributed to its own span rather than to whichever
                # detector happens to run first (the paper computes the
                # matrices once and reuses them across all inefficiency
                # types).
                with recorder.span("engine.matrix_build") as build_span:
                    build_span.add("matrix.ruam_nnz", int(context.ruam.csr.nnz))
                    build_span.add("matrix.rpam_nnz", int(context.rpam.csr.nnz))
                timings["matrix_build"] = build_span.duration
                # Warm the shared workspace before any detection runs:
                # every detector registers what it needs (scan thresholds,
                # subset pairs, dense/signature artifacts), then the
                # aggregated requests are flushed — one blocked
                # co-occurrence pass per axis serves duplicates, similar,
                # and shadowed alike.  This is where the blocks fan out.
                warmable = [
                    d
                    for d in self._detectors
                    if type(d).warm is not Detector.warm
                ]
                if warmable:
                    with recorder.span("engine.workspace_warm") as warm_span:
                        for detector in warmable:
                            detector.warm(context)
                        context.workspace.flush()
                    timings["workspace_warm"] = warm_span.duration
                for detector in self._detectors:
                    with recorder.span(f"detector:{detector.name}") as span:
                        found = detector.detect(context)
                        span.add("findings", len(found))
                    recorder.observe("detector.seconds", span.duration)
                    findings.extend(found)
                    timings[detector.name] = span.duration
        return Report(
            state=state,
            findings=findings,
            timings=timings,
            total_seconds=root.duration,
            config=self.config,
            metrics=self._build_metrics(root, n_workers, recorder),
        )

    def _build_metrics(
        self, root: Any, n_workers: int, recorder: Recorder
    ) -> dict[str, Any]:
        """Assemble ``Report.metrics`` from the run's root span.

        ``counters`` and ``spans`` are deterministic for a given input
        and worker mode.  Counter totals are identical between serial and
        parallel runs of the same analysis.

        Schema 2 adds ``histograms``: per-name summaries (count, sum,
        min/max, p50/p90/p99, log-spaced buckets) of the run's
        distribution metrics — per-block kernel timings, per-detector
        durations.  Each scan block records into its own registry,
        which the parent merges in when it grafts the block (no
        observation lost or double-counted, independent of worker
        count and merge order).  Observation counts do not depend on
        the worker count: one
        ``cooccurrence.block_seconds`` per block and one
        ``detector.seconds`` per detector.

        ``gc`` holds the full (generation-2) garbage collections
        charged to the recorder, those that ran on its thread while it
        had the innermost open span: ``collections`` and the
        ``pause_s`` histogram summary (``None`` without any).  They
        depend on the process heap, not on the input, so they stay out
        of ``counters`` and ``histograms``.

        ``workers`` echoes the requested ``n_workers``, the resolved
        count the blocked scans may use, and the mode that actually ran:
        ``"parallel"`` only when some scan ran its blocks on more than
        one thread, ``"serial"`` otherwise — also with ``n_workers > 1``
        when every axis fits in one block, the process may use one CPU
        only, or the recorder measures memory.
        """
        threaded = any(
            span.name == "cooccurrence.block"
            and span.attributes.get("threads", 1) > 1
            for _, _, span in root.walk()
        )
        histograms = recorder.registry.histogram_summaries()
        pauses = histograms.pop(GC_PAUSE, None)
        return {
            "schema": 2,
            "counters": counter_totals(root),
            "spans": span_count(root),
            "histograms": histograms,
            "gc": {
                "collections": pauses["count"] if pauses else 0,
                "pause_s": pauses,
            },
            "workers": {
                "requested": self.config.n_workers,
                "resolved": n_workers,
                "mode": "parallel" if threaded else "serial",
            },
        }


def analyze(
    state: RbacState,
    config: AnalysisConfig | None = None,
    recorder: Recorder | None = None,
) -> Report:
    """One-shot convenience wrapper: ``AnalysisEngine(config).analyze(state)``."""
    return AnalysisEngine(config).analyze(state, recorder=recorder)
