"""End-to-end benchmark of the RBAC analysis library and service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``audit``, ``serve-rw``,
``serve-queue``, all closed loops with one client on
``OrgProfile.small(divisor=10, seed=<seed>)``.

``--trace 0`` measures the end-to-end metrics with tracing off.  The
workload is set up ``SETUPS`` times (``setup_s`` is the median), then
cycles run for ``--seconds`` after ``WARMUP_CYCLES`` discarded ones.
Every timing is rescaled by the reference kernel (``calib.py``).  The
printed table names each operation as the workload knows it; the last
line is the JSON result, whose workload-neutral metrics are

* ``setup_s`` — generate the org (+ build, warm-start and bind the
  service on serve-*);
* ``peak_rss_mb`` — ``ru_maxrss`` of this process at the end;
* ``cycle_s`` — one whole cycle, the sum of its operations;
* ``report_new_s`` — a report on a state not analysed yet:
  ``analyze_s`` (audit), ``analyze_miss_s`` (serve-rw), ``queued_s``
  (serve-queue);
* ``report_again_s`` — the same state's report requested again:
  ``analyze_par_s`` (audit, two workers), ``analyze_hit_s`` (serve-rw),
  ``enqueue_dedup_s`` (serve-queue);
* ``other_ops_s`` — the cycle's other operations: ``serialise_s``
  (audit), ``mutate_s`` + ``counts_s`` (serve-*).

Each is the median over the run's cycles.  Failed operations (non-2xx
or a failed check) count in ``failed`` and make the exit code 1.

``--trace 1`` runs the workload twice with the same seed, alternating
untraced and traced cycles, writes the traced ones as JSONL and reduces
them to the per-layer metrics of ``layers.py``.  Counter-valued metrics
must repeat exactly between the two runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Scale of every workload (``OrgProfile.small`` divisor).
DIVISOR = 10
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Cycles run before recording starts (first analyses run slower).
WARMUP_CYCLES = 2
#: Recorded cycles per end-to-end run, however short ``--seconds`` is.
MIN_CYCLES = 5
#: Traced run: untraced/traced cycle pairs after one warm-up cycle.
TRACE_WARMUP_CYCLES = 1
TRACED_PAIRS = 2

#: Metric names and units, as ``BENCHMARK.json`` declares them.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("audit", "serve-rw", "serve-queue"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(
            f"error: {package.relative_to(ROOT)} not found; run from a "
            "checkout of the repository"
        )
    for entry in (str(HERE), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def fmt(value: float, digits: int = 4) -> str:
    return f"{value:.{digits}g}" if abs(value) >= 1e-3 or value == 0 else f"{value:.3e}"


def run_e2e(args: argparse.Namespace, workdir: Path) -> tuple[dict, object]:
    from calib import REF_NOMINAL_S, Meter, summarize
    from repro.obs import NULL_RECORDER
    from workloads import WORKLOADS, Gate, clock

    cls = WORKLOADS[args.workload]
    meter = Meter()
    setup_raw: list[float] = []
    setup_norm: list[float] = []
    workload = None
    try:
        for index in range(SETUPS):
            if workload is not None:
                workload.close()
                workload = None
            gc.collect()
            target = workdir / f"setup-{index}"
            target.mkdir(parents=True)
            candidate = cls(args.seed, DIVISOR, target, Gate())
            workload = candidate
            # Bracketed by kernel runs like every timed operation.
            before = meter.ref()
            raw = clock(lambda: candidate.setup(NULL_RECORDER))[1]
            after = meter.ref()
            setup_raw.append(raw)
            setup_norm.append(raw * REF_NOMINAL_S / ((before + after) / 2))
        started = time.perf_counter()
        cycle = 0
        while True:
            meter.start_cycle(cycle, recording=cycle >= WARMUP_CYCLES)
            workload.cycle(meter, NULL_RECORDER, probe=False)
            cycle += 1
            if (
                cycle >= WARMUP_CYCLES + MIN_CYCLES
                and time.perf_counter() - started >= args.seconds
            ):
                break
        workload.final_checks(meter)
        header = workload.describe()
    finally:
        if workload is not None:
            workload.close()

    ref_median = statistics.median(meter.refs)
    rows: list[tuple[str, str, dict, dict | None]] = []
    rows.append(("setup_s", "s", summarize(setup_norm), summarize(setup_raw)))
    for name, parts in ({op: (op,) for op in cls.ops} | cls.composites).items():
        series = meter.series(*parts)
        rows.append((
            name, "s",
            summarize([norm for _, _, norm in series]),
            summarize([raw for _, raw, _ in series]),
        ))
    gated = dict(cls.gated, cycle_s=cls.ops)
    metrics: dict[str, float] = {"setup_s": statistics.median(setup_norm)}
    for name, ops in gated.items():
        series = meter.series(*ops)
        metrics[name] = statistics.median(norm for _, _, norm in series)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = peak
    attempted = max(meter.attempted, 1)

    print(f"# workload {args.workload}: OrgProfile.small(divisor={DIVISOR}, "
          f"seed={args.seed}); {header}")
    print(f"# {cycle} cycles ({WARMUP_CYCLES} warm-up), {SETUPS} set-ups; "
          f"times rescaled to a {REF_NOMINAL_S * 1e3:.0f} ms reference kernel "
          f"(measured median {ref_median * 1e3:.2f} ms over {len(meter.refs)} runs)")
    print(f"{'metric':<18}{'median':>10} {'unit':<6}{'raw':>10}"
          f"{'iqr/med':>9}  {'tail':<18}{'n':>4}")
    for name, unit, norm, raw in rows:
        tail = (
            f"p{norm['tail'][0]}={fmt(norm['tail'][1])}" if norm["tail"] else "-"
        )
        print(f"{name:<18}{fmt(norm['median']):>10} {unit:<6}"
              f"{fmt(raw['median']):>10}{norm['iqr_frac']:>9.3f}  "
              f"{tail:<18}{norm['n']:>4}")
    print(f"{'peak_rss_mb':<18}{fmt(peak):>10} MB")
    print(f"{'failed_frac':<18}{fmt(meter.failed / attempted):>10} ratio "
          f"({meter.failed} of {attempted} operations)")
    for name, ops in gated.items():
        print(f"# {name} = {' + '.join(ops)}")
    result = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }
    return result, meter


def run_traced(args: argparse.Namespace, workdir: Path) -> tuple[dict, object]:
    from calib import Meter
    from layers import INEXACT, LAYERS, reduce_run
    from repro.obs import NULL_RECORDER, JsonlTraceSink, Recorder
    from workloads import WORKLOADS, Gate

    cls = WORKLOADS[args.workload]
    meter = Meter()
    traced_cycles: set[int] = set()
    runs = []
    for run in range(2):
        target = workdir / f"run-{run}"
        target.mkdir(parents=True)
        path = target / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            gate = Gate(sink)
            rec = Recorder(sinks=[sink])
            workload = cls(args.seed, DIVISOR, target, gate)
            try:
                workload.setup(rec)
                workload.prepare_probes()
                for index in range(TRACE_WARMUP_CYCLES + 2 * TRACED_PAIRS):
                    traced = (
                        index >= TRACE_WARMUP_CYCLES
                        and (index - TRACE_WARMUP_CYCLES) % 2 == 1
                    )
                    meter.start_cycle(
                        run * 1000 + index,
                        recording=index >= TRACE_WARMUP_CYCLES,
                    )
                    if traced:
                        traced_cycles.add(meter.cycle)
                    gate.on = traced
                    workload.cycle(
                        meter, rec if traced else NULL_RECORDER, probe=traced
                    )
                    gate.on = False
                workload.final_checks(meter)
                metricz = workload.metricz()
            finally:
                workload.close()
        runs.append(reduce_run(
            path, workload.reports, workload.tally, metricz, TRACED_PAIRS
        ))
        header = workload.describe()

    (first, bases), (second, _) = runs
    exact = {
        name for name, unit in PER_LAYER.items()
        if unit in ("count", "bytes", "ratio") and name not in INEXACT
    }
    values = {
        name: first[name] if name in exact else (first[name] + second[name]) / 2
        for name in first
    }
    for name in sorted(exact):
        if first[name] != second[name]:
            meter.fail(f"traced runs disagree on {name}: "
                       f"{first[name]} != {second[name]}")
    main_ops = cls.gated["report_new_s"]
    main = meter.series(*main_ops)
    on = [norm for cycle, _, norm in main if cycle in traced_cycles]
    off = [norm for cycle, _, norm in main if cycle not in traced_cycles]
    values["obs.trace_overhead_frac"] = (
        statistics.median(on) / statistics.median(off) - 1 if on and off else 0.0
    )
    bases["obs.trace_overhead_frac"] = (
        f"{' + '.join(main_ops)}: traced / untraced - 1 over "
        f"{len(on)}+{len(off)} cycles"
    )
    values["bench.ref_kernel_s"] = statistics.median(meter.refs)
    values["parallel.child_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    )

    print(f"# workload {args.workload} (traced): OrgProfile.small("
          f"divisor={DIVISOR}, seed={args.seed}); {header}")
    print(f"# 2 runs x {TRACED_PAIRS} traced cycles; values per traced cycle "
          "(datagen per set-up); counts must repeat exactly across the runs")
    print(f"{'layer':<15}{'metric':<36}{'value':>12} {'unit':<6} moves")
    for name, unit in PER_LAYER.items():
        layer, pairing = LAYERS[name]
        print(f"{layer:<15}{name:<36}{fmt(values[name]):>12} {unit:<6} {pairing}")
    for name, base in bases.items():
        print(f"# base of {name}: {base}")
    result = {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER.items()
    }
    return result, meter


def stop_child_processes() -> None:
    """Stop and reap every process the run started.

    Pool workers are joined by the library when an analysis ends; the
    ``multiprocessing`` resource tracker that shared-memory publication
    starts is not, and would outlive this process (as a zombie where
    nothing reaps orphans).  Closing its pipe ends it; ``_stop`` then
    waits for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    previous_tmpdir = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    cpus = os.sched_getaffinity(0)
    if WORKLOADS[args.workload].one_cpu:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        runner = run_traced if args.trace else run_e2e
        metrics, meter = runner(args, workdir)
    finally:
        stop_child_processes()
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
        if previous_tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = previous_tmpdir
        tempfile.tempdir = None
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for failure in meter.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = meter.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(meter.attempted, 1),
        "failed": meter.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
