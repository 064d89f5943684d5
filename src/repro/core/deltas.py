"""Typed mutation deltas emitted by the stores alongside version bumps.

Every store owns a :class:`DeltaJournal`; each committed mutation batch
appends one :class:`DeltaRecord` spanning ``pre_version -> post_version``
with the *kind* of the change and (for inserts) the inserted items.  The
incremental cache repair engine (:mod:`repro.cache.repair`) replays the
records between a cached entry's version and the store's current version
to append the delta's contribution to cached sub-query results instead
of re-executing them.

The journal is deliberately conservative: :meth:`DeltaJournal.since`
returns the records only when they form an **unbroken chain** of version
transitions from ``version`` to ``upto``.  Any bump the journal did not
see (a code path that forgot to record, a trimmed history, a concurrent
rebuild) breaks the chain and the method returns ``None`` — the caller
falls back to plain invalidation.  Wrong answers are impossible; the
journal can only ever *miss* repair opportunities.

Snapshots share their parent's journal object (records are immutable and
appends are lock-protected), so pinned read-only wrappers can replay the
same history up to their own pinned version.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

#: Record kinds.  Only ``insert`` is repairable; everything else makes
#: the repair engine fall back to invalidation for the affected span.
INSERT = "insert"
REMOVE = "remove"
UPSERT = "upsert"
RESET = "reset"


@dataclass(frozen=True)
class DeltaRecord:
    """One committed mutation batch: ``pre_version -> post_version``.

    ``items`` carries the inserted rows/triples/documents for ``insert``
    records (whatever the store's ``add`` accepts); other kinds may leave
    it empty.  ``scope`` narrows the change to a sub-container (the table
    name for relational stores), letting queries over *other* containers
    re-stamp without any delta evaluation.
    """

    pre_version: int
    post_version: int
    kind: str
    items: tuple = ()
    scope: Optional[str] = None


class DeltaJournal:
    """A bounded, thread-safe log of a store's version transitions."""

    def __init__(self, capacity: int = 512):
        self._entries: deque[DeltaRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._listeners: list[Callable[[DeltaRecord], None]] = []

    def record(self, pre_version: int, post_version: int, kind: str,
               items: Iterable = (), scope: str | None = None) -> DeltaRecord:
        """Append one record (call under the store's write lock)."""
        entry = DeltaRecord(pre_version, post_version, kind,
                            tuple(items), scope)
        with self._lock:
            self._entries.append(entry)
        return entry

    def since(self, version: int, upto: int) -> Optional[list[DeltaRecord]]:
        """The unbroken chain of records from ``version`` to ``upto``.

        Returns the records oldest-first, ``[]`` when the versions are
        equal, and ``None`` when the chain has a gap (an unrecorded bump
        or trimmed history) — the caller must then fall back to
        invalidation.
        """
        if version == upto:
            return []
        if version > upto:
            return None
        with self._lock:
            entries = list(self._entries)
        chain: list[DeltaRecord] = []
        expected = upto
        for entry in reversed(entries):
            if entry.post_version > expected:
                continue
            if entry.post_version != expected:
                return None
            chain.append(entry)
            expected = entry.pre_version
            if expected <= version:
                break
        if expected != version:
            return None
        chain.reverse()
        return chain

    # ------------------------------------------------------------------
    # Change listeners (standing queries)
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[DeltaRecord], None]) -> None:
        """Register a callback fired after each committed batch."""
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[DeltaRecord], None]) -> None:
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def notify(self, entry: DeltaRecord) -> None:
        """Fire the listeners (call *outside* the store's write lock)."""
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(entry)
            except Exception:  # noqa: BLE001 - listeners never break writes
                pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
