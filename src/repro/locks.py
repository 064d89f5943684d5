"""Reader-writer locking shared by every mutable store.

Each store (RDF :class:`~repro.rdf.graph.Graph`, relational
:class:`~repro.relational.database.Database` and its tables, the
full-text and JSON document stores) owns one :class:`RWLock`: mutators
take the write side; :meth:`snapshot`, and each read of a watermark
snapshot, take the read side.  The lock lives in a near-dependency-free
module (only the stdlib-backed :mod:`repro.obs.metrics`) so the store
packages can import it without pulling in the service layer (which
would cycle back through ``repro.core``).

Contention is observable: an acquisition that actually had to wait
records its wait time into the ``rwlock_wait_seconds`` histogram of the
process-global metrics registry (labelled by lock side); the uncontended
fast path records nothing and pays nothing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import get_registry

#: (registry, read-histogram, write-histogram) — cached on the registry's
#: identity so ``reset_registry()`` is picked up on the next wait.
_WAIT_CACHE: tuple | None = None


def _record_wait(side: str, seconds: float) -> None:
    global _WAIT_CACHE
    registry = get_registry()
    cached = _WAIT_CACHE
    if cached is None or cached[0] is not registry:
        cached = (registry,
                  registry.histogram("rwlock_wait_seconds", side="read"),
                  registry.histogram("rwlock_wait_seconds", side="write"))
        _WAIT_CACHE = cached
    (cached[1] if side == "read" else cached[2]).observe(seconds)


class RWLock:
    """A reader-writer lock: many readers or one (re-entrant) writer.

    * Any number of threads may hold the read side simultaneously.
    * The write side is exclusive and re-entrant: a thread already
      writing may nest further write (or read) acquisitions — store
      mutators call each other (``add_all`` → ``add``, JSON ``add`` →
      ``remove``), so this is required, not a convenience.
    * Read acquisitions are re-entrant per thread as well: a reader is
      never gated behind a waiting writer it would deadlock with.
    * Waiting writers block *new* readers (writer preference), so a
      stream of snapshots cannot starve updates.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer: int | None = None
        self._writer_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()

    # -- read side -----------------------------------------------------------
    def acquire_read(self) -> None:
        depth = getattr(self._local, "read_depth", 0)
        with self._cond:
            if self._writer is not None and self._writer == threading.get_ident():
                # A writer reading its own store: treat as a nested write.
                self._writer_depth += 1
                return
            waited_from = None
            if depth == 0:
                while self._writer is not None or self._writers_waiting:
                    if waited_from is None:
                        waited_from = time.perf_counter()
                    self._cond.wait()
            self._readers += 1
        if waited_from is not None:
            _record_wait("read", time.perf_counter() - waited_from)
        self._local.read_depth = depth + 1

    def release_read(self) -> None:
        with self._cond:
            if self._writer is not None and self._writer == threading.get_ident():
                self._writer_depth -= 1
                if self._writer_depth == 0:
                    self._writer = None
                    self._cond.notify_all()
                return
            self._local.read_depth = getattr(self._local, "read_depth", 1) - 1
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- write side ----------------------------------------------------------
    def acquire_write(self) -> None:
        ident = threading.get_ident()
        with self._cond:
            if self._writer == ident:
                self._writer_depth += 1
                return
            own_reads = getattr(self._local, "read_depth", 0)
            self._writers_waiting += 1
            waited_from = None
            try:
                # A thread upgrading from its own read locks only waits
                # for *other* readers (its own would never drain).
                while self._writer is not None or self._readers > own_reads:
                    if waited_from is None:
                        waited_from = time.perf_counter()
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = ident
            self._writer_depth = 1
        if waited_from is not None:
            _record_wait("write", time.perf_counter() - waited_from)

    def release_write(self) -> None:
        with self._cond:
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # -- context managers ----------------------------------------------------
    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"RWLock(readers={self._readers}, writer={self._writer}, "
                f"waiting={self._writers_waiting})")
