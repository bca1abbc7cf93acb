"""Per-layer metrics of the traced run.

Layer names are the repository's modules.  Three sources feed them:

* the run's JSONL trace, reduced with :mod:`repro.obs.traceanalysis`
  to total and self time per span name — the benchmark's own
  ``bench.*`` spans around public calls into each layer, plus the spans
  the program emits to its sinks (``service.request``, ``jobs.run``,
  and, where the engine runs on the benchmark's thread,
  ``parallel.map`` and ``engine.detect_parallel``);
* the serialised reports of the traced cycles: ``timings_seconds`` (the
  engine's own ``engine.*``/``detector:*`` span durations),
  ``metrics.counters`` and the ``cooccurrence.block_seconds``
  histogram — the one source that exists on every workload, because the
  service and the job worker run the engine without the caller's
  recorder;
* the workload's tallies (sizes it moved) and ``/metricz``.

Times and counts are per cycle: totals over the traced cycles divided
by their number.  A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Any

from repro.obs import load_trace_file, summarize_traces

__all__ = ["LAYERS", "INEXACT", "reduce_run"]

DETECTORS = (
    "standalone_nodes",
    "disconnected_roles",
    "single_assignment_roles",
    "duplicate_roles",
    "similar_roles",
)
_ANALYSIS = (
    "analyze_s, analyze_par_s (audit); analyze_miss_s (serve-rw); "
    "queued_s (serve-queue)"
)
_SERVICE = (
    "analyze_hit_s, analyze_miss_s, mutate_s, counts_s (serve-rw); "
    "enqueue_dedup_s (serve-queue); none on audit"
)
_JOBS = "queued_s, enqueue_dedup_s (serve-queue)"
_DETECT = "analyze_s (audit); analyze_miss_s (serve-rw); queued_s"
_REPORT = (
    "serialise_s (audit); analyze_miss_s, analyze_hit_s (serve-rw); queued_s"
)
_JSONIO = "enqueue_dedup_s, queued_s (serve-queue); none on serve-rw or audit"
_PARALLEL = "analyze_par_s only (audit)"

#: Per-layer metric -> ``(layer, end-to-end metrics it should move)``;
#: names and units are declared in ``BENCHMARK.json``.
LAYERS: dict[str, tuple[str, str]] = {
    "datagen.generate_org_s": ("datagen", "setup_s (all)"),
    "engine.matrix_build_s": ("core.matrices", _ANALYSIS),
    "matrix.ruam_nnz": ("core.matrices", _ANALYSIS),
    "matrix.rpam_nnz": ("core.matrices", _ANALYSIS),
    "engine.workspace_warm_s": ("core.workspace", _ANALYSIS),
    "workspace.artifact_misses": ("core.workspace", _ANALYSIS),
    "workspace.artifact_hits": ("core.workspace", _ANALYSIS),
    "workspace.cooccurrence_passes": ("core.workspace", _ANALYSIS),
    "workspace.artifact_bytes": ("core.workspace", _ANALYSIS),
    "cooccurrence.block_s": ("core.grouping", _ANALYSIS),
    "cooccurrence.blocks": ("core.grouping", _ANALYSIS),
    "cooccurrence.kernel_blocks.sparse": ("core.grouping", _ANALYSIS),
    "cooccurrence.kernel_blocks.bits": ("core.grouping", _ANALYSIS),
    "cooccurrence.match_ratio": ("core.grouping", _ANALYSIS),
    **{f"detector.{name}_s": ("core.detectors", _DETECT) for name in DETECTORS},
    "findings": ("core.detectors", _DETECT),
    "report.to_dict_s": ("core.report", _REPORT),
    "report.json_dumps_s": ("core.report", _REPORT),
    "report.bytes": ("core.report", _REPORT),
    "service.fingerprint_s": ("service", _SERVICE),
    "service.copy_s": ("service", _SERVICE),
    "service.request_s.post_mutations": ("service", _SERVICE),
    "service.request_s.get_counts": ("service", _SERVICE),
    "service.request_s.post_analyze": ("service", _SERVICE),
    "service.request_s.get_job": ("service", _SERVICE),
    "http.transport_s": ("service", _SERVICE),
    "service.apply_batch_s": ("service", _SERVICE),
    "service.counts_s": ("service", _SERVICE),
    "service.cache_hit_ratio": ("service", _SERVICE),
    "jsonio.state_to_dict_s": ("io.jsonio", _JSONIO),
    "jsonio.state_dumps_s": ("io.jsonio", _JSONIO),
    "jsonio.state_bytes": ("io.jsonio", _JSONIO),
    "jsonio.state_from_dict_s": ("io.jsonio", _JSONIO),
    "jobs.claim_s": ("jobs", _JOBS),
    "jobs.run_s": ("jobs", _JOBS),
    "jobs.complete_s": ("jobs", _JOBS),
    "jobs.get_s": ("jobs", _JOBS),
    "jobs.payload_bytes": ("jobs", _JOBS),
    "jobs.result_bytes": ("jobs", _JOBS),
    "parallel.map_s": ("parallel", _PARALLEL),
    "engine.detect_parallel_s": ("parallel", _PARALLEL),
    "shm.bytes_published": ("parallel", _PARALLEL),
    "parallel.pool_reuses": ("parallel", _PARALLEL),
    "parallel.fallbacks": ("parallel", _PARALLEL),
    "parallel.child_peak_rss_mb": ("parallel", _PARALLEL),
    "obs.trace_overhead_frac": (
        "obs",
        "analyze_s (audit), analyze_miss_s (serve-rw), queued_s "
        "(serve-queue); diagnostic",
    ),
    "bench.ref_kernel_s": ("obs", "diagnostic (host speed)"),
}

#: Count-valued metrics (units count, bytes, ratio) repeat exactly
#: between two traced runs of one seed, except these: ``report.bytes``
#: and ``jobs.result_bytes`` are sizes of documents that embed timings,
#: so their digit counts vary, and the trace overhead is a timing ratio.
INEXACT = frozenset(
    ("report.bytes", "jobs.result_bytes", "obs.trace_overhead_frac")
)

#: Counters read from ``Report.metrics`` under the same name.
_REPORT_COUNTERS = (
    "matrix.ruam_nnz",
    "matrix.rpam_nnz",
    "workspace.artifact_misses",
    "workspace.artifact_hits",
    "workspace.cooccurrence_passes",
    "workspace.artifact_bytes",
    "cooccurrence.blocks",
    "cooccurrence.kernel_blocks.sparse",
    "cooccurrence.kernel_blocks.bits",
    "findings",
    "shm.bytes_published",
    "parallel.pool_reuses",
    "parallel.fallbacks",
)
#: ``bench.*`` span name -> metric, both as total time per cycle.
_BENCH_SPANS = {
    "bench.datagen.generate_org": "datagen.generate_org_s",
    "bench.report.to_dict": "report.to_dict_s",
    "bench.report.json_dumps": "report.json_dumps_s",
    "bench.service.fingerprint": "service.fingerprint_s",
    "bench.service.copy": "service.copy_s",
    "bench.service.apply_batch": "service.apply_batch_s",
    "bench.service.counts": "service.counts_s",
    "bench.jsonio.state_to_dict": "jsonio.state_to_dict_s",
    "bench.jsonio.state_dumps": "jsonio.state_dumps_s",
    "bench.jsonio.state_from_dict": "jsonio.state_from_dict_s",
    "bench.jobs.claim": "jobs.claim_s",
    "bench.jobs.get": "jobs.get_s",
}
_ENDPOINTS = {
    ("POST", "/v1/mutations"): "post_mutations",
    ("GET", "/v1/counts"): "get_counts",
    ("POST", "/v1/analyze"): "post_analyze",
}


def _engine_totals(reports: list[dict[str, Any]]) -> Counter:
    totals: Counter = Counter()
    for payload in reports:
        timings = payload.get("timings_seconds", {})
        metrics = payload.get("metrics", {})
        counters = metrics.get("counters", {})
        block = (
            metrics.get("histograms", {})
            .get("cooccurrence.block_seconds", {})
            .get("sum", 0.0)
        )
        totals["engine.matrix_build_s"] += timings.get("matrix_build", 0.0)
        # The warm phase runs the blocked scans; their time is the
        # grouping layer's, so it is taken out of the workspace's.
        totals["engine.workspace_warm_s"] += max(
            0.0, timings.get("workspace_warm", 0.0) - block
        )
        totals["cooccurrence.block_s"] += block
        for name in DETECTORS:
            totals[f"detector.{name}_s"] += timings.get(name, 0.0)
        for name in _REPORT_COUNTERS:
            totals[name] += counters.get(name, 0)
        totals["cooccurrence.matched_pairs"] += counters.get(
            "cooccurrence.matched_pairs", 0
        )
        totals["cooccurrence.candidate_pairs"] += counters.get(
            "cooccurrence.candidate_pairs", 0
        )
    return totals


def _trace_totals(path: Path) -> Counter:
    totals: Counter = Counter()
    traces = load_trace_file(path)
    by_name = {row["name"]: row for row in summarize_traces(traces)["by_name"]}

    def total(name: str) -> float:
        return by_name.get(name, {}).get("total_s", 0.0)

    for span, metric in _BENCH_SPANS.items():
        totals[metric] += total(span)
    totals["parallel.map_s"] += by_name.get("parallel.map", {}).get("self_s", 0.0)
    # Whole fan-out, map included: its self time reads 0, because the
    # workers' grafted fragments overlap it.
    totals["engine.detect_parallel_s"] += total("engine.detect_parallel")
    totals["jobs.run_s"] += total("jobs.run")
    totals["jobs.complete_s"] += max(
        0.0, total("bench.jobs.run_one") - total("jobs.run")
    )
    served = 0.0
    for trace in traces:
        root = trace.root
        if root.name != "service.request":
            continue
        served += root.duration
        method = root.attributes.get("method")
        route = str(root.attributes.get("route", ""))
        endpoint = (
            "get_job" if route.startswith("/v1/jobs/")
            else _ENDPOINTS.get((method, route), "other")
        )
        totals[f"service.request_s.{endpoint}"] += root.duration
    client = sum(
        row["total_s"] for name, row in by_name.items()
        if name.startswith("bench.http.")
    )
    totals["http.transport_s"] += max(0.0, client - served) if client else 0.0
    return totals


def reduce_run(
    trace_path: Path,
    reports: list[dict[str, Any]],
    tally: Counter,
    metricz: dict[str, Any] | None,
    cycles: int,
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values of one traced run, plus the base of each ratio.

    ``datagen.generate_org_s`` is per set-up (one per traced run); the
    rest are per traced cycle.
    """
    totals = _engine_totals(reports) + _trace_totals(trace_path) + tally
    values: dict[str, float] = {}
    for name in LAYERS:
        value = totals.get(name, 0)
        values[name] = value if name == "datagen.generate_org_s" else (
            value / cycles
        )
    candidates = totals.get("cooccurrence.candidate_pairs", 0)
    matched = totals.get("cooccurrence.matched_pairs", 0)
    values["cooccurrence.match_ratio"] = matched / candidates if candidates else 0.0
    bases = {
        "cooccurrence.match_ratio": f"{matched} matched / {candidates} candidate pairs",
    }
    cache = (metricz or {}).get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    values["service.cache_hit_ratio"] = (
        cache.get("hits", 0) / lookups if lookups else 0.0
    )
    bases["service.cache_hit_ratio"] = (
        f"{cache.get('hits', 0)} hits / {lookups} lookups"
    )
    return values, bases
