"""Access-event logs and the synthetic log generator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.state import RbacState
from repro.exceptions import ConfigurationError


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """One observed exercise of a permission by a user."""

    user_id: str
    permission_id: str
    timestamp: float = 0.0


class AccessLog:
    """An append-only collection of access events.

    The log is deliberately dumb — no schema coupling to any state — so
    real audit-trail exports can be poured in directly.  Validation
    against a state happens at analysis time.
    """

    def __init__(self, events: Iterable[AccessEvent] = ()) -> None:
        self._events: list[AccessEvent] = list(events)

    def record(
        self, user_id: str, permission_id: str, timestamp: float = 0.0
    ) -> None:
        """Append one event."""
        self._events.append(AccessEvent(user_id, permission_id, timestamp))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AccessEvent]:
        return iter(self._events)

    def window(self, start: float, end: float) -> "AccessLog":
        """Events with ``start <= timestamp < end``."""
        if end < start:
            raise ConfigurationError("window end precedes start")
        return AccessLog(
            e for e in self._events if start <= e.timestamp < end
        )

    def used_pairs(self) -> frozenset[tuple[str, str]]:
        """Distinct (user, permission) pairs observed."""
        return frozenset(
            (e.user_id, e.permission_id) for e in self._events
        )

    def users(self) -> frozenset[str]:
        return frozenset(e.user_id for e in self._events)

    def permissions(self) -> frozenset[str]:
        return frozenset(e.permission_id for e in self._events)

    def __repr__(self) -> str:
        return (
            f"AccessLog(events={len(self._events)}, "
            f"distinct_pairs={len(self.used_pairs())})"
        )


def save_access_log_csv(log: AccessLog, path) -> None:
    """Write a log as CSV (header ``user_id,permission_id,timestamp``)."""
    import csv
    from pathlib import Path

    with open(Path(path), "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["user_id", "permission_id", "timestamp"])
        for event in log:
            writer.writerow(
                [event.user_id, event.permission_id, repr(event.timestamp)]
            )


def load_access_log_csv(path) -> AccessLog:
    """Read a log written by :func:`save_access_log_csv`.

    The timestamp column is optional (defaults to 0.0), so plain
    two-column exports load as well.
    """
    import csv
    from pathlib import Path

    from repro.exceptions import DataFormatError

    log = AccessLog()
    with open(Path(path), newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if len(header) not in (2, 3) or header[0] != "user_id":
            raise DataFormatError(
                f"{path}: expected header user_id,permission_id[,timestamp]"
            )
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) not in (2, 3):
                raise DataFormatError(
                    f"{path}:{line_number}: expected 2 or 3 columns"
                )
            timestamp = 0.0
            if len(row) == 3 and row[2]:
                try:
                    timestamp = float(row[2])
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{line_number}: bad timestamp {row[2]!r}"
                    ) from None
            log.record(row[0], row[1], timestamp=timestamp)
    return log


def generate_access_log(
    state: RbacState,
    exercise_rate: float = 0.7,
    events_per_pair: int = 3,
    duration: float = 86_400.0,
    seed: int = 0,
) -> AccessLog:
    """Synthesise a plausible access log for ``state``.

    For each (user, effective permission) pair, the pair is *exercised*
    with probability ``exercise_rate``; exercised pairs produce
    ``1..events_per_pair`` events at uniform-random timestamps in
    ``[0, duration)``.  The remaining pairs are never used — the dormant
    access the analysis is meant to surface.

    Deterministic per seed (used by tests and the example).
    """
    if not 0.0 <= exercise_rate <= 1.0:
        raise ConfigurationError("exercise_rate must be in [0, 1]")
    if events_per_pair < 1:
        raise ConfigurationError("events_per_pair must be >= 1")
    rng = np.random.default_rng(seed)
    log = AccessLog()
    for user_id, granted in state.effective_permission_map().items():
        for permission_id in sorted(granted):
            if rng.random() >= exercise_rate:
                continue
            for _ in range(int(rng.integers(1, events_per_pair + 1))):
                log.record(
                    user_id,
                    permission_id,
                    timestamp=float(rng.random() * duration),
                )
    return log
