#!/usr/bin/env python
"""Benchmark the findings layers at paper scale: detection and the report.

Generates ``OrgProfile.paper_scale()`` once (recording ``generate_s``
and ``state_sha256``, the SHA-256 of its ``encode_state`` blob),
analyses it once to warm up, then ``--repeat`` times records, per run:

* each detector's time and ``analyze()``'s, with its full (gen-2) GC
  collections and their pauses (``Report.metrics["gc"]``);
* ``Report.to_dict``, ``json.dumps(to_dict(), sort_keys=True)``,
  ``Report.encode`` and ``Report.counts``;
* the job plane's state codec: ``encode_state`` of the state,
  ``decode_state`` of its blob and ``analyze()`` of the decoded state
  (``analyze_decoded``);

and reports the median of each, with the SHA-256 of the report without
its run-specific members (``timings_seconds``, ``total_seconds``,
``metrics``).  After the runs it checks that the decoded state equals
the generated one, ``recompute_fingerprint()`` included, and that the
report encodes byte-identically to a report of the same findings held
as records alone (``Findings([list(report.findings)])``), which checks
the column writers of every finding type.  Each run is written under ``--label`` into ``--out``
(``BENCH_findings.json`` at the repo root), next to the runs of other
labels; once both ``parent`` and ``change`` are there the script
prints the ratios and fails unless their report digests and their
state digests are equal.

Usage, with a second checkout of the parent commit at ``PARENT``::

    python scripts/bench_findings.py --src PARENT/src --label parent
    python scripts/bench_findings.py --label change

``--quick`` runs ``OrgProfile.small(divisor=10)`` instead (for a smoke
run; its numbers are not meant to be quoted).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 1
RUN_SPECIFIC = ("timings_seconds", "total_seconds", "metrics")
STEPS = ("to_dict", "json_dumps", "encode", "counts")
CODEC_STEPS = ("encode_state", "decode_state", "analyze_decoded")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import repro from")
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_findings.json")
    return parser.parse_args()


def clock(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def one_run(state, analyze) -> dict:
    report, analyze_s = clock(lambda: analyze(state))
    gc_stats = report.metrics["gc"]
    run = {
        "analyze": analyze_s,
        "detectors": dict(report.timings),
        "gc_collections": gc_stats["collections"],
        "gc_pause_s": (gc_stats["pause_s"] or {}).get("sum", 0.0),
    }
    payload, run["to_dict"] = clock(report.to_dict)
    run["findings"] = payload["n_findings"]
    text, run["json_dumps"] = clock(lambda: json.dumps(payload, sort_keys=True))
    encoded, run["encode"] = clock(report.encode)
    assert encoded == text.encode("utf-8"), "encode() != dumps(to_dict())"
    _, run["counts"] = clock(report.counts)
    for key in RUN_SPECIFIC:
        del payload[key]
    run["report_sha256"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    run["report_bytes"] = len(encoded)
    return run


def codec_run(state, analyze, encode_state, decode_state) -> dict:
    """The codec steps, timed once the report run's objects are gone."""
    gc.collect()
    run = {}
    blob, run["encode_state"] = clock(lambda: encode_state(state))
    decoded, run["decode_state"] = clock(lambda: decode_state(blob))
    _, run["analyze_decoded"] = clock(lambda: analyze(decoded))
    return run


def summarise(runs: list[dict]) -> dict:
    median = statistics.median
    detectors = {
        name: median(run["detectors"][name] for run in runs)
        for name in runs[0]["detectors"]
    }
    digests = {run["report_sha256"] for run in runs}
    assert len(digests) == 1, f"reports differ between runs: {digests}"
    return {
        "runs": len(runs),
        "analyze_s": median(run["analyze"] for run in runs),
        "detector_s": detectors,
        "gc_collections": median(run["gc_collections"] for run in runs),
        "gc_pause_s": median(run["gc_pause_s"] for run in runs),
        **{
            f"{step}_s": median(run[step] for run in runs)
            for step in STEPS + CODEC_STEPS
        },
        "findings": runs[0]["findings"],
        "report_bytes": runs[0]["report_bytes"],
        "report_sha256": digests.pop(),
    }


def compare(results: dict) -> bool:
    parent, change = results["parent"], results["change"]
    for key in (
        "generate_s",
        "analyze_s",
        *(f"{step}_s" for step in STEPS + CODEC_STEPS),
    ):
        print(f"  {key:20} {parent[key]:8.3f} -> {change[key]:8.3f} s "
              f"({change[key] / parent[key]:.2f}x)")
    for name, seconds in change["detector_s"].items():
        before = parent["detector_s"].get(name)
        if before:
            print(f"  {name:24} {before:8.3f} -> {seconds:8.3f} s")
    same = True
    for digest in ("report_sha256", "state_sha256"):
        equal = parent[digest] == change[digest]
        print(f"  {digest} {'equal' if equal else 'DIFFERS'}")
        same = same and equal
    return same


def main() -> int:
    args = parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from repro.core.engine import analyze
    from repro.core.report import Report
    from repro.datagen import OrgProfile, generate_org
    from repro.io.statecodec import decode_state, encode_state

    profile = (
        OrgProfile.small(divisor=10) if args.quick else OrgProfile.paper_scale()
    )
    state, generate_s = clock(lambda: generate_org(profile).state)
    print(f"generate_org: {generate_s:.1f}s")
    analyze(state)  # warm-up: first analyses run slower
    runs = []
    for n in range(args.repeat):
        runs.append(one_run(state, analyze))
        runs[-1].update(codec_run(state, analyze, encode_state, decode_state))
        print(f"run {n + 1}: " + ", ".join(
            f"{key} {runs[-1][key]:.3f}s"
            for key in ("analyze", *STEPS, *CODEC_STEPS)
        ))
    summary = summarise(runs)
    summary["generate_s"] = generate_s
    blob = encode_state(state)
    summary["state_sha256"] = hashlib.sha256(blob).hexdigest()
    # Compared through a copy: the comparison builds per-role edge
    # dicts, which the timed runs above must not find on ``state``.
    decoded, original = decode_state(blob), state.copy()
    assert decoded == original, "decode_state(encode_state(state)) != state"
    assert decoded.recompute_fingerprint() == original.recompute_fingerprint()
    del decoded, original
    report = analyze(state)
    records = Report(
        state,
        list(report.findings),  # held as records alone
        report.timings,
        report.total_seconds,
        report.config,
        report.metrics,
    )
    assert report.encode() == records.encode(), (
        "the columned report encodes differently from its records"
    )
    del report, records
    summary["environment"] = {
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }

    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    if results.get("quick", args.quick) != args.quick:
        results = {}
    results.update(schema_version=SCHEMA_VERSION, quick=args.quick)
    results.setdefault("scale", "small(divisor=10)" if args.quick else "paper_scale")
    results[args.label] = summary
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.label} to {args.out}")
    if "parent" in results and "change" in results:
        return 0 if compare(results) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
