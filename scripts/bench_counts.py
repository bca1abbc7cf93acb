#!/usr/bin/env python
"""Benchmark the incremental auditor: construction, counts(), one edit.

For each scale (``OrgProfile.small(divisor=10)`` and
``OrgProfile.paper_scale()``) generates the organisation once, then
``--repeat`` times records, per run:

* ``construct_s``: ``IncrementalAuditor(state)`` (it copies the state
  and builds both axes' buckets and similarity graphs);
* ``counts_s``: one ``counts()`` call, the mean of ``--calls`` calls;
* ``assign_revoke_s``: one ``assign_user`` plus one ``revoke_user``
  through the auditor, the mean over ``--calls`` roles (each gains a
  user it lacks, then loses it again);

and reports the median of each.  Each run checks that ``counts()``
equals ``analyze(state).counts()`` once.  The medians are written under
``--label`` into ``--out`` (``BENCH_counts.json`` at the repo root),
next to the runs of other labels; once both ``parent`` and ``change``
are there the script prints the ratios.

Usage, with a second checkout of the parent commit at ``PARENT``::

    python scripts/bench_counts.py --src PARENT/src --label parent
    python scripts/bench_counts.py --label change

``--quick`` runs only ``small(divisor=10)``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 1
STEPS = ("construct_s", "counts_s", "assign_revoke_s")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree to import repro from")
    parser.add_argument("--label", required=True)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--calls", type=int, default=10)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_counts.json")
    return parser.parse_args()


def edits(state, n: int) -> list[tuple[str, str]]:
    """``n`` (role, user) pairs, each a user the role does not hold."""
    users = state.user_ids()
    pairs = []
    for role_id in state.role_ids()[:n]:
        held = state.users_of_role(role_id)
        pairs.append((role_id, next(u for u in users if u not in held)))
    return pairs


def one_run(state, IncrementalAuditor, calls: int) -> dict:
    start = time.perf_counter()
    auditor = IncrementalAuditor(state)
    run = {"construct_s": time.perf_counter() - start}
    start = time.perf_counter()
    for _ in range(calls):
        auditor.counts()
    run["counts_s"] = (time.perf_counter() - start) / calls
    pairs = edits(state, calls)
    start = time.perf_counter()
    for role_id, user_id in pairs:
        auditor.assign_user(role_id, user_id)
        auditor.revoke_user(role_id, user_id)
    run["assign_revoke_s"] = (time.perf_counter() - start) / len(pairs)
    run["counts"] = auditor.counts()
    return run


def bench_scale(profile, args) -> dict:
    from repro.core.engine import analyze
    from repro.core.incremental import IncrementalAuditor
    from repro.datagen import generate_org

    state = generate_org(profile).state
    expected = analyze(state).counts()
    runs = []
    for n in range(args.repeat):
        runs.append(one_run(state, IncrementalAuditor, args.calls))
        assert runs[-1]["counts"] == expected, (runs[-1]["counts"], expected)
        print(f"  run {n + 1}: " + ", ".join(
            f"{step} {runs[-1][step] * 1e3:.3f}ms" for step in STEPS
        ))
    return {
        "runs": len(runs),
        **{step: statistics.median(run[step] for run in runs) for step in STEPS},
        "roles": state.n_roles,
    }


def compare(results: dict) -> None:
    for scale, labels in results["scales"].items():
        if "parent" not in labels or "change" not in labels:
            continue
        parent, change = labels["parent"], labels["change"]
        print(scale)
        for step in STEPS:
            print(f"  {step:16} {parent[step] * 1e3:10.3f} -> "
                  f"{change[step] * 1e3:10.3f} ms "
                  f"({change[step] / parent[step]:.3g}x)")


def main() -> int:
    args = parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from repro.datagen import OrgProfile

    profiles = {"small(divisor=10)": OrgProfile.small(divisor=10)}
    if not args.quick:
        profiles["paper_scale"] = OrgProfile.paper_scale()
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results.update(schema_version=SCHEMA_VERSION)
    results.setdefault("scales", {})
    for scale, profile in profiles.items():
        print(scale)
        summary = bench_scale(profile, args)
        summary["environment"] = {
            "python": platform.python_version(),
            "cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        }
        results["scales"].setdefault(scale, {})[args.label] = summary
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.label} to {args.out}")
    compare(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
