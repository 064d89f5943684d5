"""Typed mutation deltas emitted by the stores alongside version bumps.

Every store owns a :class:`DeltaJournal`; each committed mutation batch
appends one :class:`DeltaRecord` spanning ``pre_version -> post_version``
with the *kind* of the change and its items.  The incremental cache
repair engine (:mod:`repro.cache.repair`) replays the records between a
cached entry's version and the store's current version to merge the
delta's contribution into cached sub-query results instead of
re-executing them.

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

A snapshot of the RDF graph, the full-text or the JSON store is a
watermark, not a copy: each batch also chains an :class:`UndoLink` of
what it overwrote, which a :class:`Snapshot` reverts to read the store at
its version.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

#: Record kinds.  Any kind of a document store is repairable; of the
#: others only ``insert`` is (see :mod:`repro.cache.repair`).
INSERT = "insert"
REMOVE = "remove"
UPSERT = "upsert"
RESET = "reset"


@dataclass(frozen=True)
class DeltaRecord:
    """One committed mutation batch: ``pre_version -> post_version``.

    ``items`` carries what the batch added or removed (rows, triples, the
    documents stored; a document removal leaves it empty).  ``replaced``
    carries the documents a full-text or JSON batch replaced or removed,
    as they stood before it (its undo link's objects, not copies).
    ``scope`` narrows the change to a sub-container (the table name for
    relational stores), letting queries over *other* containers re-stamp
    without any delta evaluation.
    """

    pre_version: int
    post_version: int
    kind: str
    items: tuple = ()
    scope: Optional[str] = None
    replaced: tuple = ()


def document_deltas(records: list[DeltaRecord], id_of: Callable, over: Callable):
    """What a chain of document batches did, net, as ``over(documents)``
    builds it: the copies it wrote that still stand, in write order (a
    rewrite moves a document last, as its fresh insertion rank does), and
    the copies standing before it that it replaced or removed (None when
    there are none)."""
    before, after = {}, {}
    for record in records:
        for old in record.replaced:
            if after.pop(id_of(old), None) is None:  # not a copy the chain wrote
                before.setdefault(id_of(old), old)
        for new in record.items:
            after.pop(id_of(new), None)
            after[id_of(new)] = new
    return over(after.values()), (over(before.values()) if before else None)


class DeltaJournal:
    """A bounded, thread-safe log of a store's version transitions."""

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._entries: deque[DeltaRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._listeners: list[Callable[[DeltaRecord], None]] = []

    def record(self, pre_version: int, post_version: int, kind: str, items: Iterable = (),
               scope: str | None = None, replaced: Iterable = ()) -> DeltaRecord:
        """Append one record (call under the store's write lock)."""
        entry = DeltaRecord(pre_version, post_version, kind,
                            tuple(items), scope, tuple(replaced))
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


class UndoLink:
    """One committed write batch, as what it overwrote: ``before`` pairs
    every key it changed with its value before (a graph: triple -> was it
    present; a full-text store: doc id -> its document, or None; a JSON
    store: doc id -> its document and insertion rank, or None).  A store
    holds its newest link and a snapshot the link of its version, so a
    link lives as long as the oldest snapshot that may need it: the chain
    needs no compaction rule."""

    __slots__ = ("before", "next")

    def __init__(self, before: tuple = ()):
        self.before, self.next = before, None

    def append(self, before: Iterable) -> "UndoLink":
        """Chain the next batch's link (call under the store's write lock)."""
        self.next = UndoLink(tuple(before))
        return self.next


class Snapshot:
    """Mixin of a store snapshot that is a watermark over its live store.

    ``with snapshot.reading() as store`` holds the live store's read lock
    for one read; ``store`` is the live store while nothing was written
    since (the live read path, nothing filtered), else ``self._at(undo)``,
    the store as it stood rebuilt from ``undo`` (each key written since,
    mapped to its value then) over :class:`CopyOnWrite` views of the live
    indexes, memoised per chain position.  No writer runs under the read
    lock, so no read iterates a container a writer resizes.  A subclass's
    ``reads`` are the store methods answered in one such read each.
    """

    def __init_subclass__(cls, reads: Iterable[str] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        for name in reads:
            setattr(cls, name, _read_through(name))

    def _watch(self, live, link: UndoLink) -> None:
        self._live, self._memo = live, (link, {}, None)

    def snapshot(self):
        return self

    def reading(self):
        return self

    def __enter__(self):
        live = self._live
        live._rwlock.acquire_read()
        try:
            if live.version == self.version:
                return live
            link, undo, store = self._memo
            if store is None or link.next is not None:
                undo = dict(undo)
                while link.next is not None:
                    link = link.next
                    for key, value in link.before:
                        undo.setdefault(key, value)
                store = self._at(undo)
                self._memo = (link, undo, store)
            return store
        except BaseException:
            live._rwlock.release_read()
            raise

    def __exit__(self, *exc_info) -> None:
        self._live._rwlock.release_read()


def _read_through(name: str):
    def read(self, *args, **kwargs):
        with self.reading() as store:
            return getattr(store, name)(*args, **kwargs)

    read.__name__ = name
    return read


def remembered(store, version: int, build: Callable):
    """``store``'s live snapshot of ``version``, else a new ``build()``,
    remembered weakly: neither store nor snapshot keeps a snapshot alive."""
    state = store._snapshot_state
    snapshot = state[1]() if state is not None and state[0] == version else None
    if snapshot is None:
        snapshot = build()
        store._snapshot_state = (version, weakref.ref(snapshot))
    return snapshot


class CopyOnWrite(dict):
    """A shallow copy of an index whose inner containers become
    ``private(value)`` (``None`` when missing) on first access, so writes
    never reach the index it copies."""

    def __init__(self, index: dict, private: Callable):
        super().__init__(index)
        self._private, self._own = private, set()

    def __getitem__(self, key):
        if key not in self._own or key not in self:
            self._own.add(key)
            dict.__setitem__(self, key, self._private(dict.get(self, key)))
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def setdefault(self, key, default=None):
        return self[key]
