"""Fingerprint-keyed report cache with request coalescing.

A full analysis is the service's expensive operation; the cache makes
repeated work free along two axes:

* **Caching** — results are keyed by ``(state fingerprint, effective
  config)``, so a report stays valid across any number of requests until
  a mutation actually changes the content (or the requested analysis
  differs).  Bounded LRU: the newest ``capacity`` reports are kept.
* **Coalescing** — concurrent identical requests share one computation.
  The first requester becomes the *owner* and starts the compute on a
  dedicated thread; everyone (owner included) waits on the same
  completion event, each bounded by its own request deadline.  A waiter
  whose deadline elapses gets :class:`DeadlineExceeded` while the
  computation keeps running and still lands in the cache — deadline
  aborts are clean: no partial results, no lost work, no corruption of
  other requests.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.exceptions import ConfigurationError
from repro.service.protocol import DeadlineExceeded

__all__ = ["ReportCache"]


class _InFlight:
    """One running computation plus its completion event."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


class ReportCache:
    """Thread-safe bounded LRU cache with single-flight computation."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1 (got {capacity})"
            )
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._inflight: dict[Hashable, _InFlight] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0
        self.deadline_abandons = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Any | None:
        """The cached value for ``key`` (counted as a hit), else ``None``.

        Hit-only: a miss is not counted and starts nothing, so callers
        can probe cheaply before preparing the inputs a compute needs,
        then fall through to :meth:`get_or_compute`.
        """
        with self._lock:
            if key not in self._entries:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]

    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        timeout: float | None = None,
    ) -> tuple[Any, str]:
        """Return ``(value, source)`` for ``key``.

        ``source`` is ``"hit"`` (served from cache), ``"miss"`` (this
        call owned the computation), or ``"coalesced"`` (this call
        joined a computation another request started).  ``timeout`` is
        the caller's remaining deadline in seconds; when it elapses
        before the shared computation finishes, :class:`DeadlineExceeded`
        is raised for *this caller only*.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key], "hit"
            flight = self._inflight.get(key)
            if flight is None:
                flight = _InFlight()
                self._inflight[key] = flight
                owner = True
                self.misses += 1
            else:
                owner = False
                self.coalesced += 1
        if owner:
            # The compute runs on its own (daemon) thread so the owning
            # request can honour its deadline like every other waiter.
            threading.Thread(
                target=self._run,
                args=(key, flight, compute),
                name="repro-service-analyze",
                daemon=True,
            ).start()
        if not flight.event.wait(timeout):
            with self._lock:
                self.deadline_abandons += 1
            raise DeadlineExceeded(
                "analysis did not finish within the request deadline "
                "(the result will be cached when it completes)"
            )
        if flight.error is not None:
            raise flight.error
        return flight.value, ("miss" if owner else "coalesced")

    def _run(
        self, key: Hashable, flight: _InFlight, compute: Callable[[], Any]
    ) -> None:
        try:
            value = compute()
        except BaseException as error:  # re-raised in every waiter
            flight.error = error
            with self._lock:
                self._inflight.pop(key, None)
        else:
            flight.value = value
            with self._lock:
                self._inflight.pop(key, None)
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        finally:
            flight.event.set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def invalidate(self) -> int:
        """Drop every cached entry (in-flight computations unaffected)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        return dropped

    def stats(self) -> dict[str, int]:
        """Counters + occupancy for ``/metricz``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "in_flight": len(self._inflight),
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "evictions": self.evictions,
                "deadline_abandons": self.deadline_abandons,
            }
