"""``repro`` command-line interface.

Subcommands
-----------
``analyze``
    Load an RBAC dataset (JSON or CSV directory), run the detector
    suite, print the report (text / markdown / json).
``generate``
    Produce a synthetic dataset: the planted organisation (``org``) or
    the departmental demo org (``departmental``).
``plan``
    Build a remediation plan from a dataset and print it (optionally
    write the consolidated dataset back out).
``diff``
    Analyse two datasets and print the finding delta (new / resolved /
    count changes) — the periodic-run review view.
``anonymize``
    Keyed pseudonymisation: structure (and findings) preserved exactly,
    identities unlinkable without the key.
``render``
    Graphviz DOT export of the tripartite graph, Figure-1 style, with
    detected inefficiencies highlighted.
``stats``
    Dataset shape statistics (degree distributions, densities, Gini).
``usage``
    Dormancy analysis joining the dataset with an access-log CSV.
``bench``
    Run a paper experiment (``fig2``, ``fig3``, ``real``) or the
    ``density`` ablation and print the series/table.
``serve``
    Run the long-running analysis service: an HTTP/JSON daemon with
    mutation ingestion, report caching, backpressure, and graceful
    drain (see docs/ARCHITECTURE.md).  With ``--execution queue`` the
    daemon enqueues analyses onto a durable job plane instead of
    computing them in-process.
``work``
    Attach N worker processes to a shared job-queue file (the consumer
    side of ``serve --execution queue``); workers claim leased jobs,
    heartbeat, and survive SIGTERM by finishing or releasing cleanly.
``trace``
    Analyse JSONL trace files written by ``--trace-out``: ``summarize``
    (span trees, critical path, slowest spans), ``flame`` (collapsed
    stacks for flamegraph.pl / speedscope), ``diff`` (per-span-name
    delta between two runs).

Run ``repro <subcommand> --help`` for the full flag list.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.core.engine import AnalysisConfig, analyze
from repro.core.state import RbacState
from repro.exceptions import ReproError
from repro.io import load_csv, load_json, save_csv, save_json


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # Conventional 128+SIGINT so long analyze/bench/serve runs die
        # quietly on Ctrl-C instead of dumping a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Reader went away (e.g. `repro analyze ... | head`).  Point
        # stdout at /dev/null so the interpreter's shutdown flush does
        # not raise a second time, and exit as a successful pipeline
        # participant.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IAM Role Diet: detect RBAC data inefficiencies",
    )
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    analyze_parser = sub.add_parser(
        "analyze", help="analyse a dataset and print the findings report"
    )
    analyze_parser.add_argument("dataset", help="JSON file or CSV directory")
    analyze_parser.add_argument(
        "--finder",
        default="cooccurrence",
        choices=("cooccurrence", "dbscan", "hnsw", "hash", "lsh"),
        help="group finder for duplicate/similar roles",
    )
    analyze_parser.add_argument(
        "--similarity-threshold",
        type=int,
        default=1,
        help="max differing users/permissions for 'similar' roles",
    )
    analyze_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="threads for the blocked co-occurrence scan "
        "(1 = serial, 0 = all usable CPUs); the report is identical for "
        "every value",
    )
    analyze_parser.add_argument(
        "--block-rows",
        type=int,
        default=None,
        metavar="ROWS",
        help="row-block size for the co-occurrence product (bounds peak "
        "memory; default: one monolithic block)",
    )
    analyze_parser.add_argument(
        "--format",
        default="text",
        choices=("text", "markdown", "json", "csv"),
        help="report output format",
    )
    analyze_parser.add_argument(
        "--hierarchy",
        metavar="EDGES_JSON",
        help="role-inheritance file (repro-hierarchy JSON); the dataset "
        "is flattened through it before analysis",
    )
    analyze_parser.add_argument(
        "--extensions",
        action="store_true",
        help="also run extension detectors (shadowed roles)",
    )
    analyze_parser.add_argument(
        "--max-findings",
        type=int,
        default=20,
        help="findings shown in text output",
    )
    analyze_parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="log per-span records via stdlib logging at this level "
        "(default: no logging)",
    )
    analyze_parser.add_argument(
        "--trace-out",
        metavar="FILE.jsonl",
        default=None,
        help="write the run's trace as JSON Lines "
        "(schema: docs/OBSERVABILITY.md)",
    )
    analyze_parser.add_argument(
        "--metrics-out",
        metavar="FILE.json",
        default=None,
        help="write the run's metrics (counter totals, timings, worker "
        "breakdown) as JSON; also enables per-block tracemalloc "
        "peak-memory counters",
    )
    analyze_parser.set_defaults(handler=_cmd_analyze)

    generate_parser = sub.add_parser(
        "generate", help="generate a synthetic dataset"
    )
    generate_parser.add_argument(
        "kind", choices=("org", "departmental"), help="generator to use"
    )
    generate_parser.add_argument("output", help="output JSON file or CSV dir")
    generate_parser.add_argument(
        "--scale-divisor",
        type=int,
        default=100,
        help="org: divide the paper-scale dataset by this factor "
        "(1 = full ~90k users / ~50k roles / ~350k permissions)",
    )
    generate_parser.add_argument(
        "--seed", type=int, default=0, help="generator seed"
    )
    generate_parser.add_argument(
        "--csv", action="store_true", help="write a CSV directory instead of JSON"
    )
    generate_parser.set_defaults(handler=_cmd_generate)

    plan_parser = sub.add_parser(
        "plan", help="build a remediation plan for a dataset"
    )
    plan_parser.add_argument("dataset", help="JSON file or CSV directory")
    plan_parser.add_argument(
        "--finder", default="cooccurrence",
        choices=("cooccurrence", "dbscan", "hnsw", "hash", "lsh"),
    )
    plan_parser.add_argument(
        "--extensions",
        action="store_true",
        help="include extension detectors (shadowed roles) in planning",
    )
    plan_parser.add_argument(
        "--apply",
        metavar="OUTPUT",
        help="apply the plan and write the consolidated dataset here",
    )
    plan_parser.add_argument(
        "--json", action="store_true", help="print the plan as JSON"
    )
    plan_parser.set_defaults(handler=_cmd_plan)

    diff_parser = sub.add_parser(
        "diff",
        help="compare the findings of two datasets (e.g. successive "
        "periodic exports)",
    )
    diff_parser.add_argument("old", help="older dataset (JSON or CSV dir)")
    diff_parser.add_argument("new", help="newer dataset (JSON or CSV dir)")
    diff_parser.add_argument(
        "--finder", default="cooccurrence",
        choices=("cooccurrence", "dbscan", "hnsw", "hash", "lsh"),
    )
    diff_parser.add_argument(
        "--json", action="store_true", help="print the delta as JSON"
    )
    diff_parser.set_defaults(handler=_cmd_diff)

    anonymize_parser = sub.add_parser(
        "anonymize",
        help="pseudonymise a dataset (structure preserved, ids unlinkable)",
    )
    anonymize_parser.add_argument("dataset", help="input JSON file or CSV dir")
    anonymize_parser.add_argument("output", help="output JSON file or CSV dir")
    anonymize_parser.add_argument(
        "--key", default="", help="HMAC key (same key = stable pseudonyms)"
    )
    anonymize_parser.add_argument(
        "--csv", action="store_true", help="write a CSV directory"
    )
    anonymize_parser.set_defaults(handler=_cmd_anonymize)

    render_parser = sub.add_parser(
        "render",
        help="export the tripartite graph as Graphviz DOT "
        "(inefficiencies highlighted)",
    )
    render_parser.add_argument("dataset", help="JSON file or CSV directory")
    render_parser.add_argument(
        "output", nargs="?", help="output .dot file (default: stdout)"
    )
    render_parser.add_argument(
        "--plain",
        action="store_true",
        help="skip the analysis pass; no highlighting",
    )
    render_parser.set_defaults(handler=_cmd_render)

    stats_parser = sub.add_parser(
        "stats", help="print dataset shape statistics"
    )
    stats_parser.add_argument("dataset", help="JSON file or CSV directory")
    stats_parser.add_argument(
        "--json", action="store_true", help="print statistics as JSON"
    )
    stats_parser.set_defaults(handler=_cmd_stats)

    usage_parser = sub.add_parser(
        "usage",
        help="dormancy analysis: join a dataset with an access-log CSV",
    )
    usage_parser.add_argument("dataset", help="JSON file or CSV directory")
    usage_parser.add_argument(
        "log", help="access-log CSV (user_id,permission_id[,timestamp])"
    )
    usage_parser.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    usage_parser.set_defaults(handler=_cmd_usage)

    bench_parser = sub.add_parser(
        "bench", help="run a paper experiment and print its series/table"
    )
    bench_parser.add_argument(
        "--experiment",
        required=True,
        choices=("fig2", "fig3", "real", "density"),
        help="paper experiment (fig2/fig3/real) or the density ablation",
    )
    bench_parser.add_argument(
        "--scale",
        type=float,
        default=0.2,
        help="fraction of the paper's sweep sizes to run "
        "(1.0 = full 1,000-10,000 sweep; default 0.2)",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=5, help="repetitions per point"
    )
    bench_parser.add_argument(
        "--methods",
        default="dbscan,hnsw,cooccurrence",
        help="comma-separated method list",
    )
    bench_parser.add_argument(
        "--csv", action="store_true", help="print CSV instead of a table"
    )
    bench_parser.add_argument(
        "--scale-divisor",
        type=int,
        default=100,
        help="real: planted-org scale divisor (1 = paper scale)",
    )
    bench_parser.set_defaults(handler=_cmd_bench)

    serve_parser = sub.add_parser(
        "serve",
        help="run the analysis service (HTTP/JSON daemon over live state)",
    )
    serve_parser.add_argument(
        "dataset",
        nargs="?",
        help="initial dataset (JSON file or CSV directory); ignored when "
        "--snapshot points at an existing snapshot (warm restart), "
        "omitted = start empty",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8035,
        help="bind port (0 = pick an ephemeral port)",
    )
    serve_parser.add_argument(
        "--snapshot",
        metavar="FILE",
        default=None,
        help="snapshot file: loaded on start when present (warm restart), "
        "written on graceful drain",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        metavar="N",
        help="max concurrent /v1/* requests; the next one gets 429 + "
        "Retry-After",
    )
    serve_parser.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="default per-request deadline (clients override with the "
        "X-Deadline header)",
    )
    serve_parser.add_argument(
        "--cache-capacity",
        type=int,
        default=32,
        metavar="N",
        help="reports kept in the fingerprint-keyed LRU cache",
    )
    serve_parser.add_argument(
        "--refresh-mutations",
        type=int,
        default=256,
        metavar="N",
        help="background full re-analysis after N mutations "
        "(0 disables this trigger)",
    )
    serve_parser.add_argument(
        "--refresh-seconds",
        type=float,
        default=None,
        metavar="T",
        help="background full re-analysis after T seconds with pending "
        "mutations (default: disabled)",
    )
    serve_parser.add_argument(
        "--no-warm",
        action="store_true",
        help="skip the startup analysis (faster start, cold caches, no "
        "scheduler baseline)",
    )
    serve_parser.add_argument(
        "--finder",
        default="cooccurrence",
        choices=("cooccurrence", "dbscan", "hnsw", "hash", "lsh"),
        help="default group finder for /v1/analyze and the scheduler",
    )
    serve_parser.add_argument(
        "--similarity-threshold",
        type=int,
        default=1,
        help="similarity threshold shared by /v1/counts and /v1/analyze",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="threads for each analysis's blocked co-occurrence scan "
        "(1 = serial, 0 = all usable CPUs)",
    )
    serve_parser.add_argument(
        "--block-rows",
        type=int,
        default=None,
        metavar="ROWS",
        help="row-block size for the co-occurrence product",
    )
    serve_parser.add_argument(
        "--extensions",
        action="store_true",
        help="include extension detectors (shadowed roles) by default",
    )
    serve_parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="log per-request span records via stdlib logging",
    )
    serve_parser.add_argument(
        "--trace-out",
        metavar="FILE.jsonl",
        default=None,
        help="stream per-request traces as JSON Lines "
        "(schema: docs/OBSERVABILITY.md)",
    )
    serve_parser.add_argument(
        "--slo-target",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request latency SLO target; breaching endpoints degrade "
        "/healthz to 503 (default: SLO tracking disabled)",
    )
    serve_parser.add_argument(
        "--slo-window",
        type=int,
        default=100,
        metavar="N",
        help="recent requests per endpoint the SLO verdict considers",
    )
    serve_parser.add_argument(
        "--slo-budget",
        type=float,
        default=0.1,
        metavar="FRACTION",
        help="tolerated fraction of over-target requests in the window",
    )
    serve_parser.add_argument(
        "--tracez-capacity",
        type=int,
        default=64,
        metavar="N",
        help="recent request traces retained for GET /tracez",
    )
    serve_parser.add_argument(
        "--execution",
        default="inline",
        choices=("inline", "queue"),
        help="analyze execution mode: compute in-process (inline, "
        "default) or enqueue onto the durable job plane (queue; "
        "requires --jobs and attached 'repro work' workers)",
    )
    serve_parser.add_argument(
        "--jobs",
        metavar="FILE.sqlite",
        default=None,
        help="shared job-queue database file (required with "
        "--execution queue; survives restarts)",
    )
    serve_parser.add_argument(
        "--job-lease",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="job lease duration; a worker that stops heartbeating "
        "loses its claim after this long",
    )
    serve_parser.add_argument(
        "--job-max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="claims a job may consume before it is dead-lettered",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    work_parser = sub.add_parser(
        "work",
        help="attach worker processes to a shared job-queue file",
    )
    work_parser.add_argument(
        "queue", metavar="FILE.sqlite", help="shared job-queue database file"
    )
    work_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to attach (1 = run in this process)",
    )
    work_parser.add_argument(
        "--lease",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="lease duration (match the serving daemon's --job-lease)",
    )
    work_parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="claims a job may consume before it is dead-lettered",
    )
    work_parser.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="idle sleep between empty claim attempts",
    )
    work_parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="exit after completing N jobs (default: run until signalled)",
    )
    work_parser.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long without claiming a job "
        "(default: run until signalled)",
    )
    work_parser.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="log per-job span records via stdlib logging",
    )
    work_parser.add_argument(
        "--trace-out",
        metavar="FILE.jsonl",
        default=None,
        help="stream per-job traces as JSON Lines (trace IDs stitch "
        "into the enqueuing requests' traces)",
    )
    work_parser.set_defaults(handler=_cmd_work)

    trace_parser = sub.add_parser(
        "trace",
        help="analyse JSONL trace files written by --trace-out",
    )
    trace_parser.set_defaults(handler=lambda args: (trace_parser.print_help(), 2)[1])
    trace_sub = trace_parser.add_subparsers(dest="trace_command")

    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="span-tree summary: critical path, per-name aggregates, "
        "slowest spans",
    )
    trace_summarize.add_argument("tracefile", help="JSONL trace file")
    trace_summarize.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="slowest spans shown",
    )
    trace_summarize.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    trace_summarize.set_defaults(handler=_cmd_trace_summarize)

    trace_flame = trace_sub.add_parser(
        "flame",
        help="export collapsed stacks (flamegraph.pl / speedscope format)",
    )
    trace_flame.add_argument("tracefile", help="JSONL trace file")
    trace_flame.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write collapsed stacks here instead of stdout",
    )
    trace_flame.set_defaults(handler=_cmd_trace_flame)

    trace_diff = trace_sub.add_parser(
        "diff",
        help="per-span-name delta table between two trace files",
    )
    trace_diff.add_argument("before", help="baseline JSONL trace file")
    trace_diff.add_argument("after", help="comparison JSONL trace file")
    trace_diff.add_argument(
        "--json", action="store_true", help="emit the delta rows as JSON"
    )
    trace_diff.set_defaults(handler=_cmd_trace_diff)

    return parser


# ----------------------------------------------------------------------
# Dataset helpers
# ----------------------------------------------------------------------
def _load_dataset(path_text: str) -> RbacState:
    path = Path(path_text)
    if path.is_dir():
        return load_csv(path)
    return load_json(path)


def _save_dataset(state: RbacState, path_text: str, as_csv: bool) -> None:
    if as_csv:
        save_csv(state, path_text)
    else:
        save_json(state, path_text)


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------
def _build_obs_sinks(args: argparse.Namespace):
    """Sink wiring for the shared ``--log-level``/``--trace-out`` flags.

    One helper behind ``analyze``, ``serve`` and every ``work`` process
    so the commands cannot drift: returns ``(sinks, trace_sink)`` where
    ``trace_sink`` is the closeable :class:`~repro.obs.JsonlTraceSink`
    (or ``None``).
    """
    from repro.obs import JsonlTraceSink, LoggingSink

    sinks = []
    trace_sink = None
    if args.log_level:
        import logging

        level = getattr(logging, args.log_level.upper())
        # The CLI owns process-wide logging configuration; library code
        # never touches handlers (enforced by the CI logging lint).
        logging.basicConfig(
            level=level, format="%(asctime)s %(name)s %(message)s"
        )
        sinks.append(LoggingSink(level=level))
    if args.trace_out:
        trace_sink = JsonlTraceSink(args.trace_out)
        sinks.append(trace_sink)
    return sinks, trace_sink


def _build_recorder(args: argparse.Namespace):
    """Recorder + closeable sinks for the ``analyze`` observability flags.

    Returns ``(recorder, trace_sink)`` — both ``None`` when no flag asks
    for observability (the engine then uses its own sink-less recorder).
    """
    from repro.obs import Recorder

    sinks, trace_sink = _build_obs_sinks(args)
    if not sinks and not args.metrics_out:
        return None, None
    return Recorder(sinks=sinks, measure_memory=bool(args.metrics_out)), trace_sink


def _cmd_analyze(args: argparse.Namespace) -> int:
    state = _load_dataset(args.dataset)
    if args.hierarchy:
        from repro.hierarchy import flatten, load_hierarchy_json

        state = flatten(state, load_hierarchy_json(args.hierarchy))
    options = dict(
        finder=args.finder,
        similarity_threshold=args.similarity_threshold,
        n_workers=None if args.workers == 0 else args.workers,
        block_rows=args.block_rows,
    )
    if args.extensions:
        config = AnalysisConfig.with_extensions(**options)
    else:
        config = AnalysisConfig(**options)
    recorder, trace_sink = _build_recorder(args)
    try:
        report = analyze(state, config, recorder=recorder)
    finally:
        if trace_sink is not None:
            trace_sink.close()
    if args.metrics_out:
        import json

        payload = dict(report.metrics)
        payload["timings_seconds"] = dict(report.timings)
        payload["total_seconds"] = report.total_seconds
        Path(args.metrics_out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(report.to_json())
    elif args.format == "markdown":
        print(report.to_markdown())
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_text(max_findings=args.max_findings))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.core import diff_reports

    config = AnalysisConfig(finder=args.finder)
    old_report = analyze(_load_dataset(args.old), config)
    new_report = analyze(_load_dataset(args.new), config)
    delta = diff_reports(old_report, new_report)
    if args.json:
        import json

        print(json.dumps(delta.to_dict(), indent=2))
    else:
        print(delta.to_text())
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from repro.io import anonymize

    state = _load_dataset(args.dataset)
    pseudonymised = anonymize(state, key=args.key)
    _save_dataset(pseudonymised, args.output, as_csv=args.csv)
    print(
        f"wrote anonymised dataset ({pseudonymised.n_users} users, "
        f"{pseudonymised.n_roles} roles, "
        f"{pseudonymised.n_permissions} permissions) to {args.output}"
    )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.io import state_to_dot

    state = _load_dataset(args.dataset)
    report = None if args.plain else analyze(state)
    dot = state_to_dot(state, report)
    if args.output:
        Path(args.output).write_text(dot, encoding="utf-8")
        print(f"wrote DOT graph to {args.output}")
    else:
        print(dot, end="")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core import dataset_statistics

    statistics = dataset_statistics(_load_dataset(args.dataset))
    if args.json:
        import json

        print(json.dumps(statistics.to_dict(), indent=2))
    else:
        print(statistics.to_text())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "org":
        from repro.datagen import OrgProfile, generate_org

        if args.scale_divisor == 1:
            profile = OrgProfile.paper_scale(seed=args.seed)
        else:
            profile = OrgProfile.small(
                divisor=args.scale_divisor, seed=args.seed
            )
        state = generate_org(profile).state
    else:
        from repro.datagen import DepartmentProfile, generate_departmental_org

        state = generate_departmental_org(DepartmentProfile(seed=args.seed))
    _save_dataset(state, args.output, as_csv=args.csv)
    print(
        f"wrote {state.n_users} users, {state.n_roles} roles, "
        f"{state.n_permissions} permissions to {args.output}"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.remediation import apply_plan, build_plan, measure_reduction

    state = _load_dataset(args.dataset)
    if args.extensions:
        config = AnalysisConfig.with_extensions(finder=args.finder)
    else:
        config = AnalysisConfig(finder=args.finder)
    report = analyze(state, config)
    plan = build_plan(report)
    if args.json:
        import json

        print(json.dumps(plan.to_dict(), indent=2))
    else:
        print(plan.describe())
    if args.apply:
        cleaned = apply_plan(state, plan)
        metrics = measure_reduction(state, cleaned)
        _save_dataset(cleaned, args.apply, as_csv=Path(args.apply).suffix == "")
        print(metrics.describe())
        print(f"wrote consolidated dataset to {args.apply}")
    return 0


def _cmd_usage(args: argparse.Namespace) -> int:
    from repro.usage import UsageAnalysis, load_access_log_csv

    state = _load_dataset(args.dataset)
    log = load_access_log_csv(args.log)
    analysis = UsageAnalysis(state, log)
    if args.json:
        import json

        print(json.dumps(analysis.summary().to_dict(), indent=2))
    else:
        print(analysis.to_text())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.benchharness import (
        render_real_dataset_table,
        render_series_csv,
        render_series_table,
        run_real_dataset,
        run_roles_sweep,
        run_users_sweep,
    )  # noqa: F401 (density imports on demand)

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())

    if args.experiment == "real":
        from repro.datagen import OrgProfile, PlantedCounts

        if args.scale_divisor == 1:
            profile = OrgProfile.paper_scale()
        else:
            profile = OrgProfile.small(divisor=args.scale_divisor)
        result = run_real_dataset(profile)
        print(
            render_real_dataset_table(
                result, paper_counts=PlantedCounts().as_dict()
            )
        )
        return 0

    if args.experiment == "density":
        from repro.benchharness import run_density_sweep

        result = run_density_sweep(
            [0.01, 0.05, 0.15, 0.30],
            n_roles=max(50, int(round(5000 * args.scale))),
            n_cols=max(50, int(round(1000 * args.scale))),
            methods=methods if "hnsw" not in methods else tuple(
                m for m in methods if m != "hnsw"
            ),
            repeats=args.repeats,
        )
        if args.csv:
            print(render_series_csv(result), end="")
        else:
            print(render_series_table(result))
        return 0

    # Paper sweeps go 1,000 → 10,000 in steps of 1,000; --scale shrinks
    # every size proportionally so quick runs keep the same shape.
    sizes = [
        max(50, int(round(n * args.scale))) for n in range(1000, 10001, 1000)
    ]
    sizes = sorted(set(sizes))
    if args.experiment == "fig2":
        result = run_users_sweep(
            sizes,
            n_roles=max(50, int(round(1000 * args.scale))),
            methods=methods,
            repeats=args.repeats,
        )
    else:
        result = run_roles_sweep(
            sizes,
            n_users=max(50, int(round(1000 * args.scale))),
            methods=methods,
            repeats=args.repeats,
        )
    if args.csv:
        print(render_series_csv(result), end="")
    else:
        print(render_series_table(result))
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import load_trace_file, summarize_traces
    from repro.obs.traceanalysis import format_summary

    summary = summarize_traces(
        load_trace_file(args.tracefile), top=args.top
    )
    if args.json:
        import json

        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(format_summary(summary))
    # Orphan spans mean the file's parent links are broken — surface it
    # in the exit code so CI smoke jobs catch stitched-tree regressions.
    return 1 if summary["orphan_spans"] else 0


def _cmd_trace_flame(args: argparse.Namespace) -> int:
    from repro.obs import collapsed_stacks, load_trace_file

    lines = collapsed_stacks(load_trace_file(args.tracefile))
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(lines)} collapsed stacks to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_traces, load_trace_file
    from repro.obs.traceanalysis import format_diff

    rows = diff_traces(
        load_trace_file(args.before), load_trace_file(args.after)
    )
    if args.json:
        import json

        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(format_diff(rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import AnalysisService, ServiceConfig, ServiceServer

    options = dict(
        finder=args.finder,
        similarity_threshold=args.similarity_threshold,
        n_workers=None if args.workers == 0 else args.workers,
        block_rows=args.block_rows,
    )
    if args.extensions:
        analysis = AnalysisConfig.with_extensions(**options)
    else:
        analysis = AnalysisConfig(**options)
    config = ServiceConfig(
        queue_limit=args.queue_limit,
        deadline_seconds=args.deadline,
        cache_capacity=args.cache_capacity,
        refresh_mutations=args.refresh_mutations or None,
        refresh_seconds=args.refresh_seconds,
        snapshot_path=args.snapshot,
        warm_start=not args.no_warm,
        slo_target_seconds=args.slo_target,
        slo_window=args.slo_window,
        slo_budget_fraction=args.slo_budget,
        tracez_capacity=args.tracez_capacity,
        execution=args.execution,
        jobs_path=args.jobs,
        job_lease_seconds=args.job_lease,
        job_max_attempts=args.job_max_attempts,
        analysis=analysis,
    )

    sinks, trace_sink = _build_obs_sinks(args)

    state = None
    if args.dataset:
        state = _load_dataset(args.dataset)
    service = AnalysisService(state=state, config=config, sinks=sinks)
    server = ServiceServer(service, host=args.host, port=args.port)
    host, port = server.address
    if service.restored_from_snapshot:
        print(
            f"restored state from snapshot {args.snapshot} "
            f"(mutation_seq={service.mutation_seq})"
        )
    live = service.state
    print(
        f"serving {live.n_users} users / {live.n_roles} roles / "
        f"{live.n_permissions} permissions on http://{host}:{port} "
        f"(queue_limit={args.queue_limit}, deadline={args.deadline:g}s)"
    )
    sys.stdout.flush()

    def _request_stop(signum, frame):  # noqa: ARG001 (signal signature)
        server.request_shutdown()

    previous_term = signal.signal(signal.SIGTERM, _request_stop)
    previous_int = signal.signal(signal.SIGINT, _request_stop)
    try:
        server.serve_forever()
        server.drain()
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        if trace_sink is not None:
            trace_sink.close()
    if args.snapshot:
        print(f"drained; snapshot written to {args.snapshot}")
    else:
        print("drained")
    return 0


def _work_main(args: argparse.Namespace) -> dict[str, int]:
    """The body of every ``repro work`` process: one worker loop.

    Builds the ``--log-level``/``--trace-out`` sinks, wires SIGTERM and
    SIGINT to the stop event (the worker finishes or releases its
    current job, then exits) and runs the loop to completion.  With
    ``--workers 1`` it runs in the CLI's process; otherwise each
    spawned child runs it.
    """
    import signal
    import threading

    from repro.jobs import run_worker

    sinks, trace_sink = _build_obs_sinks(args)
    stop = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 (signal signature)
        stop.set()

    previous_term = signal.signal(signal.SIGTERM, _request_stop)
    previous_int = signal.signal(signal.SIGINT, _request_stop)
    try:
        return run_worker(
            args.queue,
            lease_seconds=args.lease,
            max_attempts=args.max_attempts,
            poll_seconds=args.poll,
            max_jobs=args.max_jobs,
            idle_exit_seconds=args.idle_exit,
            stop_event=stop,
            sinks=sinks,
        )
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        if trace_sink is not None:
            trace_sink.close()


def _cmd_work(args: argparse.Namespace) -> int:
    import signal

    from repro.jobs import JobQueue, JobWorker

    if args.workers < 1:
        print(f"error: --workers must be >= 1 (got {args.workers})",
              file=sys.stderr)
        return 2
    # Before anything is attached, opened or spawned.
    JobQueue.check_options(args.lease, args.max_attempts)
    JobWorker.check_options(args.poll, args.max_jobs, args.idle_exit)
    if args.workers == 1:
        from repro.jobs import default_worker_id

        print(f"worker {default_worker_id()} attached to {args.queue}")
        sys.stdout.flush()
        stats = _work_main(args)
        print(f"worker done: {stats['done']} completed, "
              f"{stats['failed']} failed")
        return 0

    import multiprocessing

    context = multiprocessing.get_context("spawn")
    children = []
    for index in range(args.workers):
        child_args = argparse.Namespace(**vars(args))
        if args.trace_out:
            # One trace file per worker process — concurrent appends from
            # several processes would interleave mid-record.
            child_args.trace_out = f"{args.trace_out}.{index}"
        children.append(
            context.Process(
                target=_work_main,
                args=(child_args,),
                name=f"repro-work-{index}",
            )
        )
    for child in children:
        child.start()
    print(
        f"{len(children)} workers attached to {args.queue} "
        f"(pids: {', '.join(str(c.pid) for c in children)})"
    )
    sys.stdout.flush()

    def _forward_stop(signum, frame):  # noqa: ARG001
        for child in children:
            if child.is_alive():
                child.terminate()  # children trap SIGTERM and drain

    previous_term = signal.signal(signal.SIGTERM, _forward_stop)
    previous_int = signal.signal(signal.SIGINT, _forward_stop)
    exit_code = 0
    try:
        for child in children:
            child.join()
            if child.exitcode not in (0, None):
                exit_code = 1
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
    print("all workers exited")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
