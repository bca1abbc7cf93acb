"""Zero-copy array publication over ``multiprocessing.shared_memory``.

The blocked co-occurrence scan ships large read-only arrays (CSR
``data``/``indices``/``indptr``, packed words, norms) to worker
processes.  Pickling them into every worker via ``initargs`` pays a full
serialise + copy per worker per call; publishing them once into a named
shared-memory segment lets every worker map the same physical pages
read-only and rebuild numpy views with no copy at all.

Model
-----
* :func:`publish` lays all arrays of a mapping into **one** segment
  (8-byte aligned) and returns a :class:`SegmentHandle` — the owner —
  plus a picklable :class:`SegmentManifest` describing each array's
  offset/shape/dtype.  The manifest is what crosses the process
  boundary; it is a few hundred bytes regardless of matrix size.
* Workers call :func:`attach` with the manifest and get back read-only
  numpy views over the mapped segment.  Attaching registers nothing
  with ``resource_tracker`` (see below), so worker exit never warns
  about, or worse unlinks, a segment it does not own.
* The owner :meth:`~SegmentHandle.close`\\ s the handle when the scan is
  done, which unlinks the name.  On Linux the mapping survives unlink,
  so in-flight workers are unaffected; the segment is freed when the
  last mapping closes.

``resource_tracker`` note: before CPython 3.13, *attaching* to a
segment registers it with the tracker exactly as creating one does, so
a worker exiting would emit spurious leak warnings and potentially
unlink a segment the parent still owns.  :func:`attach` uses
``track=False`` where available (3.13+) and unregisters manually
otherwise — the standard workaround.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

from repro.exceptions import ReproError


class SharedMemoryUnavailable(ReproError):
    """Shared memory cannot be created in this environment.

    Raised by :func:`publish` when the platform refuses segment creation
    (no ``/dev/shm``, sandboxed semaphores, …).  The blocked scan then
    runs its serial block loop — shared memory is an optimisation, never
    a requirement.
    """


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside a published segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SegmentManifest:
    """Everything a worker needs to rebuild views: name + array specs.

    Picklable and tiny — this is the only thing shipped per task/worker
    when shared memory is active.
    """

    name: str
    size: int
    arrays: dict[str, ArraySpec]


class SegmentHandle:
    """Owning handle of a published segment; closing unlinks it."""

    def __init__(self, shm: shared_memory.SharedMemory, manifest: SegmentManifest):
        self._shm = shm
        self.manifest = manifest
        self._closed = False

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def nbytes(self) -> int:
        return self.manifest.size

    def close(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SegmentHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentHandle(name={self.name!r}, nbytes={self.nbytes})"


def _align(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


def publish(arrays: Mapping[str, np.ndarray]) -> SegmentHandle:
    """Copy ``arrays`` into one new shared-memory segment.

    Each array is laid out 8-byte aligned; the returned handle owns the
    segment and carries the manifest workers attach with.  Raises
    :class:`SharedMemoryUnavailable` when the platform cannot provide
    shared memory.
    """
    specs: dict[str, ArraySpec] = {}
    offset = 0
    contiguous: dict[str, np.ndarray] = {}
    for key, array in arrays.items():
        array = np.ascontiguousarray(array)
        contiguous[key] = array
        offset = _align(offset)
        specs[key] = ArraySpec(offset, tuple(array.shape), array.dtype.str)
        offset += array.nbytes
    size = max(1, offset)
    try:
        shm = shared_memory.SharedMemory(create=True, size=size)
    except (OSError, PermissionError) as error:
        raise SharedMemoryUnavailable(
            f"cannot create shared memory segment: {error}"
        ) from error
    for key, array in contiguous.items():
        spec = specs[key]
        target = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype),
            buffer=shm.buf, offset=spec.offset,
        )
        target[...] = array
    manifest = SegmentManifest(name=shm.name, size=size, arrays=specs)
    return SegmentHandle(shm, manifest)


class AttachedSegment:
    """A worker-side read-only mapping of a published segment."""

    def __init__(self, manifest: SegmentManifest):
        self._shm = _attach_untracked(manifest.name)
        self.manifest = manifest
        views: dict[str, np.ndarray] = {}
        for key, spec in manifest.arrays.items():
            view = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype),
                buffer=self._shm.buf, offset=spec.offset,
            )
            view.setflags(write=False)
            views[key] = view
        self.views = views

    def close(self) -> None:
        """Drop the views and close the mapping (never unlinks)."""
        # The numpy views hold exported pointers into the buffer; they
        # must be released before SharedMemory.close() will succeed.
        self.views = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a view still alive
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AttachedSegment(name={self.manifest.name!r}, "
            f"arrays={sorted(self.views)})"
        )


def attach(manifest: SegmentManifest) -> AttachedSegment:
    """Map a published segment and rebuild read-only array views.

    Zero-copy: every view aliases the shared pages directly.  The
    mapping is *not* registered with ``resource_tracker`` — the
    publishing process owns the segment's lifetime.
    """
    return AttachedSegment(manifest)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    try:
        # CPython 3.13+: opt out of resource tracking at attach time.
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    # Older CPython registers attaches unconditionally.  Unregistering
    # *afterwards* is not enough: the tracker's cache is a set, so two
    # workers attaching the same segment collapse into one registration
    # but send two unregisters — the second KeyErrors inside the tracker
    # daemon.  Suppress the registration itself instead.  Workers are
    # single-threaded at attach time, so the swap is race-free.
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
