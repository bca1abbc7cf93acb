"""Host-speed calibration and normalised timing for the benchmark.

On a small shared VM the vCPU's speed drifts by tens of percent from
one second to the next, with no steal time to show for it.  Every timed
operation is therefore bracketed by a fixed reference kernel, and its
wall time is rescaled by ``REF_NOMINAL_S / ref_measured``, where
``ref_measured`` is the mean of the kernel runs just before and just
after it (``REF_REPEATS`` back-to-back runs on each side).  A change
that makes the program faster lowers the rescaled value; a host that
runs slower for a while does not raise it.

The kernel shares no code with ``repro``: it mixes the three kinds of
work the program does (a Python integer loop, dict/str churn, NumPy
array arithmetic), so its speed tracks the host's speed on all of them.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Any, Callable

import numpy as np

__all__ = ["REF_NOMINAL_S", "ref_kernel", "Meter", "summarize"]

#: What one reference-kernel run is defined to take (seconds).  Rescaled
#: timings read as "seconds on a host where the kernel takes 20 ms".
REF_NOMINAL_S = 0.020
#: Kernel runs on each side of an operation.  One 20 ms run is a noisy
#: sample of the host's speed, which also varies from run to run of it.
REF_REPEATS = 4


def ref_kernel() -> int:
    """About 20 ms of fixed work; returns a checksum so nothing is elided."""
    acc = 0
    for i in range(40_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    table: dict[str, str] = {}
    for i in range(10_000):
        key = "k%05d" % (i * 7 % 10_000)
        table[key] = table.get(key, "") + "x"
    keys = sorted(table)
    values = np.sqrt(np.arange(130_000, dtype=np.float64) * 1.5 + 2.0)
    order = np.argsort(values[::-1] % 97.0, kind="stable")
    return acc ^ len(keys) ^ int(order[0])


class Meter:
    """Runs timed operations, each between two reference-kernel runs.

    Operations run in a fixed order inside numbered cycles.  ``op``
    takes a callable returning ``(result, raw_seconds)`` — the callable
    times exactly the interval that counts, so parsing and checks stay
    outside it.  Samples are kept only while ``recording`` is set
    (warm-up cycles are run with it cleared).

    Each operation runs as ``gc.collect()``, kernel, operation, kernel.
    The full collection comes first so that no operation pays for
    garbage another one left behind, and so that the kernel runs right
    next to the operation: the host's speed changes within a second.
    The kernel allocates almost no GC-tracked objects, so it leaves no
    garbage for the operation and cannot set off a collection itself.
    """

    def __init__(self) -> None:
        #: ``(cycle, op) -> (raw_seconds, normalised_seconds)``.
        self.samples: dict[tuple[int, str], tuple[float, float]] = {}
        #: Raw duration of every reference-kernel run, in order.
        self.refs: list[float] = []
        self.recording = False
        self.cycle = 0
        self.attempted = 0
        self._failed_ops: set[int] = set()
        self.failures: list[str] = []

    def start_cycle(self, cycle: int, recording: bool) -> None:
        self.cycle = cycle
        self.recording = recording

    @property
    def failed(self) -> int:
        return len(self._failed_ops)

    def ref(self) -> float:
        """Mean duration of ``REF_REPEATS`` back-to-back kernel runs."""
        gc.collect(0)
        runs = []
        for _ in range(REF_REPEATS):
            started = time.perf_counter()
            ref_kernel()
            runs.append(time.perf_counter() - started)
        self.refs.extend(runs)
        return sum(runs) / len(runs)

    def op(self, name: str, fn: Callable[[], tuple[Any, float]]) -> Any:
        """Run one operation; returns its result (``None`` if it raised)."""
        self.attempted += 1
        gc.collect()
        before = self.ref()
        try:
            result, raw = fn()
        except Exception as error:  # noqa: BLE001 - counted, reported, run goes on
            self.fail(f"{name}: {type(error).__name__}: {error}")
            return None
        after = self.ref()
        if self.recording:
            self.samples[(self.cycle, name)] = (
                raw, raw * REF_NOMINAL_S / ((before + after) / 2)
            )
        return result

    def check(self, ok: bool, message: str) -> bool:
        """Record a correctness check against the latest operation."""
        if not ok:
            self.fail(message)
        return ok

    def fail(self, message: str) -> None:
        self._failed_ops.add(self.attempted)
        self.failures.append(f"cycle {self.cycle}: {message}")

    def series(self, *ops: str) -> list[tuple[int, float, float]]:
        """Per-cycle ``(cycle, raw, normalised)`` sums of ``ops``, in order.

        Cycles where any of the ops has no sample are skipped.
        """
        rows = []
        for cycle in sorted({c for c, _ in self.samples}):
            parts = [self.samples.get((cycle, op)) for op in ops]
            if all(part is not None for part in parts):
                rows.append((
                    cycle, sum(p[0] for p in parts), sum(p[1] for p in parts)
                ))
        return rows


def summarize(values: list[float]) -> dict[str, Any]:
    """Median, IQR/median, and the highest percentile with >= 10 beyond.

    The tail percentile uses the nearest-rank rule; it is ``None`` while
    fewer than 11 samples exist.
    """
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        spread = (q3 - q1) / median if median else math.nan
    else:
        spread = math.nan
    below = n - 10
    tail = None
    if below >= 1:
        pct = math.floor(100 * below / n)
        tail = (pct, ordered[below - 1])
    return {"median": median, "iqr_frac": spread, "tail": tail, "n": n}
