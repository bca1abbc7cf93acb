#!/usr/bin/env python
"""Benchmark the blocked co-occurrence scan, serially and on threads.

Two sweeps, one JSON artifact (``BENCH_cooccurrence.json`` at the repo
root — checked in so reviewers can see the numbers the scan's design
rests on):

1. **Serial sparse sweep** — ``blocked_scan`` (CSR matmul per block)
   over random matrices across a density ladder, one thread.
2. **Thread sweep** — the same scan over a larger matrix at
   ``n_workers`` 1 and 2: blocks run on a per-scan thread pool, and
   scipy's CSR matmul releases the GIL, so two usable CPUs should cut
   the wall time.  Both runs must return identical pairs.

Usage::

    PYTHONPATH=src python scripts/bench_cooccurrence.py [--quick]
        [--out BENCH_cooccurrence.json]

``--quick`` shrinks sizes/repeats for CI smoke runs (the schema is
identical, the numbers are not meant to be quoted).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.grouping.cooccurrence import (  # noqa: E402
    blocked_scan,
    usable_cpus,
)

SCHEMA_VERSION = 2


def _random_csr(n_rows: int, n_cols: int, density: float, seed: int):
    rng = np.random.default_rng(seed)
    dense = rng.random((n_rows, n_cols)) < density
    return sp.csr_matrix(dense.astype(np.int64))


def _norms(csr):
    return np.asarray(csr.sum(axis=1)).ravel().astype(np.int64)


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_serial_sparse(quick: bool) -> list[dict]:
    n_rows, n_cols = (200, 300) if quick else (600, 900)
    block_rows = 64
    repeats = 2 if quick else 3
    results = []
    for density in (0.02, 0.05, 0.15, 0.3, 0.5, 0.8):
        csr = _random_csr(n_rows, n_cols, density, seed=int(density * 1000))
        norms = _norms(csr)
        seconds = _best_of(
            repeats,
            lambda: blocked_scan(
                csr, norms, k=1, collect_subsets=True, block_rows=block_rows
            ),
        )
        results.append({
            "n_rows": n_rows,
            "n_cols": n_cols,
            "density": density,
            "nnz": int(csr.nnz),
            "block_rows": block_rows,
            "seconds": seconds,
        })
        print(f"density={density:>4}: sparse={seconds:.4f}s")
    return results


def bench_threads(quick: bool) -> dict:
    """One scan at ``n_workers`` 1 and 2 over the same blocks."""
    n_rows = 1500 if quick else 4000
    density = 0.01
    block_rows = n_rows // 8
    repeats = 2 if quick else 3
    csr = sp.random(
        n_rows, n_rows, density=density, format="csr", random_state=7
    )
    csr = (csr != 0).astype(np.int64)
    norms = _norms(csr)

    def scan(n_workers: int):
        return blocked_scan(
            csr, norms, k=1, collect_subsets=True, block_rows=block_rows,
            n_workers=n_workers,
        )

    serial, threaded = scan(1), scan(2)
    for column in ("rows", "cols", "hamming", "sub_rows", "sub_cols"):
        if not np.array_equal(getattr(serial, column), getattr(threaded, column)):
            raise SystemExit(f"n_workers=2 changed the scan's {column}")
    seconds = {
        str(n_workers): _best_of(repeats, lambda w=n_workers: scan(w))
        for n_workers in (1, 2)
    }
    print(
        f"threads ({n_rows}x{n_rows}, {serial.n_blocks} blocks, "
        f"{usable_cpus()} usable CPUs): n_workers=1 {seconds['1']:.4f}s "
        f"n_workers=2 {seconds['2']:.4f}s"
    )
    return {
        "n_rows": n_rows,
        "n_cols": n_rows,
        "density": density,
        "nnz": int(csr.nnz),
        "block_rows": block_rows,
        "n_blocks": serial.n_blocks,
        "seconds": seconds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes / fewer repeats (CI smoke; schema identical)",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_cooccurrence.json",
        help="output path (default: BENCH_cooccurrence.json at repo root)",
    )
    args = parser.parse_args(argv)

    document = {
        "schema_version": SCHEMA_VERSION,
        "quick": args.quick,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "usable_cpus": usable_cpus(),
        },
        "serial_sparse": bench_serial_sparse(args.quick),
        "threads": bench_threads(args.quick),
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
