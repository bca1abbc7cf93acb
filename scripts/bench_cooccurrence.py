#!/usr/bin/env python
"""Benchmark the co-occurrence kernels and the worker data planes.

Two sweeps, one JSON artifact (``BENCH_cooccurrence.json`` at the repo
root — checked in so reviewers can see the numbers the cost model and
the shared-memory fan-out are justified by):

1. **Serial kernel sweep** — ``blocked_scan`` with ``sparse``, ``bits``
   and ``auto`` over random matrices across a density ladder.  The
   expectation the artifact documents: sparse wins at low density, bits
   wins once matrices get dense, and auto tracks the winner (within
   dispatch noise) on both ends.

2. **Parallel data-plane sweep** — the same scan fanned over worker
   processes with the shared-memory plane (publish once, manifest-only
   tasks) versus a reference pickled-``initargs`` plane: a plain
   ``ProcessPoolExecutor`` whose initializer receives the arrays
   re-serialised into every worker (defined in this script; the
   library has only the shared-memory plane).  Setup cost is what
   differs, so the matrix is sized to make it visible.

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
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bitmatrix.packed import HAVE_HW_POPCOUNT, pack_csr_rows  # noqa: E402
from repro.core.grouping.cooccurrence import (  # noqa: E402
    _scan_block,
    blocked_scan,
)
from repro.core.grouping.kernels import plan_kernels  # noqa: E402
from repro.parallel import WorkerPool, use_pool  # noqa: E402

SCHEMA_VERSION = 1

#: Per-worker arrays of the reference pickled plane, installed by
#: :func:`_install_arrays` (shipped once per worker, not once per block).
_PICKLED: dict = {}


def _install_arrays(csr, csr_t, norms) -> None:
    _PICKLED.update(csr=csr, csr_t=csr_t, norms=norms)


def _scan_pickled_block(bounds: tuple[int, int]):
    start, stop = bounds
    return _scan_block(
        _PICKLED["csr"], _PICKLED["csr_t"], _PICKLED["norms"], 1, False,
        start, stop, kernel="sparse",
    )


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


def bench_serial_kernels(quick: bool) -> list[dict]:
    n_rows, n_cols = (200, 300) if quick else (600, 900)
    block_rows = 64
    repeats = 2 if quick else 3
    results = []
    for density in (0.02, 0.05, 0.15, 0.3, 0.5, 0.8):
        csr = _random_csr(n_rows, n_cols, density, seed=int(density * 1000))
        norms = _norms(csr)
        words = pack_csr_rows(csr)
        bounds = [(s, min(s + block_rows, n_rows))
                  for s in range(0, n_rows, block_rows)]
        plan = plan_kernels(csr, csr.T.tocsr(), bounds, "auto")
        row = {
            "n_rows": n_rows,
            "n_cols": n_cols,
            "density": density,
            "nnz": int(csr.nnz),
            "auto_plan_bits_blocks": plan.count("bits"),
            "auto_plan_total_blocks": len(plan),
            "seconds": {},
        }
        for kernel in ("sparse", "bits", "auto"):
            row["seconds"][kernel] = _best_of(
                repeats,
                lambda k=kernel: blocked_scan(
                    csr, norms, k=1, collect_subsets=True,
                    block_rows=block_rows, kernel=k, words=words,
                ),
            )
        results.append(row)
        print(
            f"density={density:>4}: sparse={row['seconds']['sparse']:.4f}s "
            f"bits={row['seconds']['bits']:.4f}s "
            f"auto={row['seconds']['auto']:.4f}s "
            f"(auto plan: {plan.count('bits')}/{len(plan)} bits blocks)"
        )
    return results


def bench_data_planes(quick: bool) -> dict:
    """Shared-memory versus pickled-``initargs`` fan-out setup cost.

    Measures one full parallel scan per plane over a matrix big enough
    for serialisation to matter, pinning the plane explicitly rather
    than relying on the automatic shm-first fallback order.
    """
    n_rows, n_cols = (400, 600) if quick else (1500, 2000)
    density = 0.05
    block_rows = max(32, n_rows // 16)
    workers = 2
    repeats = 2 if quick else 3
    csr = _random_csr(n_rows, n_cols, density, seed=7)
    csr_t = csr.T.tocsr()
    norms = _norms(csr)
    bounds = [(s, min(s + block_rows, n_rows))
              for s in range(0, n_rows, block_rows)]

    def pickled_plane():
        with ProcessPoolExecutor(
            workers, initializer=_install_arrays,
            initargs=(csr, csr_t, norms),
        ) as executor:
            return list(executor.map(_scan_pickled_block, bounds))

    def shm_plane():
        with WorkerPool(workers) as pool, use_pool(pool):
            return blocked_scan(
                csr, norms, k=1, block_rows=block_rows,
                n_workers=workers, kernel="sparse",
            )

    pickled = _best_of(repeats, pickled_plane)
    shm = _best_of(repeats, shm_plane)

    # Setup-cost microbenchmark: the planes differ in how the arrays
    # reach workers, so time exactly that, on a matrix big enough for
    # data volume (not fixed syscall overhead) to dominate.  The pickled
    # plane serialises the full initargs tuple once per worker and
    # deserialises it inside each; the shm plane copies the arrays into
    # one segment once and ships a few-hundred-byte manifest per task.
    import pickle

    from repro.parallel import attach, publish

    setup_rows, setup_cols = (800, 1200) if quick else (3000, 4000)
    big = _random_csr(setup_rows, setup_cols, 0.15, seed=8)
    big_t = big.T.tocsr()
    big_norms = _norms(big)
    initargs = (big, big_t, big_norms, 1, False, False, None)

    def pickled_setup():
        for _ in range(workers):
            pickle.loads(pickle.dumps(initargs))

    def shm_setup():
        with publish(
            {
                "m_data": big.data, "m_indices": big.indices,
                "m_indptr": big.indptr, "t_data": big_t.data,
                "t_indices": big_t.indices, "t_indptr": big_t.indptr,
                "norms": big_norms,
            }
        ) as handle:
            for _ in range(workers):
                segment = attach(
                    pickle.loads(pickle.dumps(handle.manifest))
                )
                segment.close()

    pickled_setup_s = _best_of(repeats, pickled_setup)
    shm_setup_s = _best_of(repeats, shm_setup)
    setup_bytes = int(
        big.data.nbytes + big.indices.nbytes + big.indptr.nbytes
        + big_t.data.nbytes + big_t.indices.nbytes + big_t.indptr.nbytes
        + big_norms.nbytes
    )

    def warm_pool_plane():
        # One spawn amortised over two scans — the engine/service shape.
        with WorkerPool(workers) as pool, use_pool(pool):
            for _ in range(2):
                blocked_scan(
                    csr, norms, k=1, block_rows=block_rows,
                    n_workers=workers, kernel="sparse",
                )

    warm = _best_of(repeats, warm_pool_plane) / 2
    payload_bytes = int(
        csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        + csr_t.data.nbytes + csr_t.indices.nbytes + csr_t.indptr.nbytes
        + norms.nbytes
    )
    result = {
        "n_rows": n_rows,
        "n_cols": n_cols,
        "density": density,
        "nnz": int(csr.nnz),
        "n_workers": workers,
        "n_blocks": len(bounds),
        "array_bytes": payload_bytes,
        "seconds": {
            "pickled_initargs": pickled,
            "shm_cold_pool": shm,
            "shm_warm_pool_per_scan": warm,
        },
        "setup_matrix": {
            "n_rows": setup_rows,
            "n_cols": setup_cols,
            "density": 0.15,
            "array_bytes": setup_bytes,
        },
        "setup_seconds": {
            "pickled_initargs": pickled_setup_s,
            "shm_publish_attach": shm_setup_s,
        },
    }
    print(
        f"data planes ({n_rows}x{n_cols}, {workers} workers): "
        f"pickled={pickled:.4f}s shm(cold)={shm:.4f}s "
        f"shm(warm, per scan)={warm:.4f}s"
    )
    print(
        f"setup cost ({setup_bytes / 1e6:.1f} MB of arrays, "
        f"{workers} workers): pickled={pickled_setup_s:.4f}s "
        f"shm={shm_setup_s:.4f}s"
    )
    return result


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
            "hw_popcount": HAVE_HW_POPCOUNT,
        },
        "serial_kernels": bench_serial_kernels(args.quick),
        "data_planes": bench_data_planes(args.quick),
    }
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
