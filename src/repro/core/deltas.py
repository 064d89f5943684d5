"""One change log per store: a typed record of each committed write batch.

Every store owns one :class:`DeltaJournal`; each committed mutation batch
appends one :class:`DeltaRecord` spanning ``pre_version -> post_version``:
the *kind* of the change, its items and what it overwrote.  Cache repair
(:mod:`repro.cache.repair`) and the statistics absorb replay the
records between two versions (:meth:`DeltaJournal.since`); standing
queries are woken by the log's listeners; and a :class:`Snapshot` of
the RDF graph, the full-text or the JSON store, a watermark, not a copy,
holds the record of its version and walks ``record.next`` to revert
what later batches overwrote.

A store's data has one read path, live or pinned: ``with
store.reading() as s``, one consistent read under the live store's read
lock (:meth:`Journalled.reading`, :meth:`Snapshot.__enter__`).  A
snapshot holds no data, so a direct data call on it raises
``AttributeError``.

The log answers from a window of its newest records, trimmed by one item
budget, :data:`MAX_DELTA_ITEMS`, the repair gate's own bound in the gate's
measure (:attr:`DeltaRecord.size`): a record leaves the window once the
span from it to the head exceeds the budget, so the log drops only spans
repair would refuse.  A held snapshot keeps its chain alive, window or not.
:meth:`DeltaJournal.since` answers only an **unbroken chain** of version
transitions; any bump the log did not see or no longer holds returns
``None`` and the caller falls back to plain invalidation.  Wrong answers
are impossible; the log can only ever *miss* repair opportunities.
"""

from __future__ import annotations

import contextvars
import threading
import weakref
from collections import deque
from itertools import islice
from typing import Callable, Iterable, Optional

#: Record kinds.  Any kind of a document store is repairable; of the
#: others only ``insert`` is (see :mod:`repro.cache.repair`).
INSERT = "insert"
REMOVE = "remove"
UPSERT = "upsert"
RESET = "reset"

#: The most items a repaired span may carry (:attr:`DeltaRecord.size`,
#: summed): a longer span is cheaper to re-execute than to repair, and no
#: log keeps one.  It also bounds the seeded-BGP work (seeds x patterns).
MAX_DELTA_ITEMS = 4096

#: True while this context replays writes into a snapshot's rebuilt store.
_REPLAYING = contextvars.ContextVar("replaying", default=False)


class DeltaRecord:
    """One committed mutation batch ``pre_version -> post_version``, and
    a link of its store's change chain.

    ``items`` carries what the batch added or removed (rows, triples, the
    documents stored; a document removal leaves it empty).  ``before``
    pairs each key the batch wrote with what it overwrote, each pre-image
    referenced once: a graph's id triple with whether it was present; a
    full-text doc id with its document, or None; a JSON doc id with its
    document and insertion rank, or None.  ``scope`` narrows the change
    to a sub-container (the table name for relational stores), letting
    queries over *other* containers re-stamp without any delta
    evaluation.  ``next`` is the store's next batch (None at the head).
    """

    __slots__ = ("pre_version", "post_version", "kind", "items", "scope", "before",
                 "size", "next")

    def __init__(self, pre_version: int, kind: str, items: Iterable = (),
                 scope: Optional[str] = None, before: Iterable = ()):
        self.pre_version, self.post_version, self.kind = pre_version, pre_version + 1, kind
        self.items, self.scope, self.before = tuple(items), scope, tuple(before)
        #: What the batch weighs against :data:`MAX_DELTA_ITEMS`.
        self.size = len(self.items) + len(self.replaced)
        self.next: Optional[DeltaRecord] = None

    @property
    def replaced(self) -> tuple:
        """The documents a full-text or JSON batch replaced or removed, as
        they stood before it: each key's first pre-image, a JSON one
        without its rank.  A graph's pre-images are presence flags: it
        replaces no document."""
        if self.kind == INSERT:
            return ()
        firsts = dict(reversed(self.before)).values()
        return tuple(old[0] if isinstance(old, tuple) else old
                     for old in firsts if old is not None and not isinstance(old, bool))


def document_deltas(records: list[DeltaRecord], id_of: Callable, over: Callable):
    """What a chain of document batches did, net: the ids of the copies
    it wrote that still stand, and the copies standing before it that it
    replaced or removed, as ``over(documents)`` builds them (None when
    there are none)."""
    before, written = {}, set()
    for record in records:
        for old in record.replaced:
            doc_id = id_of(old)
            if doc_id in written:
                written.remove(doc_id)
            else:  # not a copy the chain wrote
                before.setdefault(doc_id, old)
        written.update(map(id_of, record.items))
    return frozenset(written), (over(before.values()) if before else None)


class DeltaJournal:
    """A store's change log: the window of its newest records, and the
    listeners woken after each batch (thread-safe)."""

    def __init__(self) -> None:
        #: The newest record, which a snapshot taken now watches from (at
        #: first a record of no batch).
        self.head = DeltaRecord(-1, RESET)
        #: The window, ending at the head; ``_items`` is its size.
        self._records: deque[DeltaRecord] = deque()
        self._items = 0
        self._lock = threading.Lock()
        self._listeners: list[Callable[[DeltaRecord], None]] = []

    def record(self, pre_version: int, kind: str, items: Iterable = (),
               scope: str | None = None, before: Iterable = ()) -> DeltaRecord:
        """Append the record of one batch ``pre_version -> pre_version + 1``
        and chain it to the head (call under the store's write lock)."""
        entry = DeltaRecord(pre_version, kind, items, scope, before)
        with self._lock:
            records = self._records
            if pre_version != self.head.post_version:  # an unrecorded bump
                records.clear()
                self._items = 0
            self.head.next = entry
            self.head = entry
            records.append(entry)
            self._items += entry.size
            while self._items > MAX_DELTA_ITEMS:
                self._items -= records.popleft().size
        return entry

    def since(self, version: int, upto: int) -> Optional[list[DeltaRecord]]:
        """The unbroken chain of records from ``version`` to ``upto``.

        Returns the records oldest-first, ``[]`` when the versions are
        equal, and ``None`` when the window does not hold the span (an
        unrecorded bump or a trimmed span) — the caller must then fall
        back to invalidation.  The window's versions run contiguously to
        the head's, so the span is counted back from the head.
        """
        if version == upto:
            return []
        with self._lock:
            records, head = self._records, self.head.post_version
            if not version < upto <= head or head - version > len(records):
                return None
            chain = list(islice(reversed(records), head - upto, head - version))
        chain.reverse()
        return chain

    @property
    def oldest(self) -> int:
        """The oldest version :meth:`since` chains from to the head."""
        with self._lock:
            return self._records[0].pre_version if self._records else self.head.post_version

    # ------------------------------------------------------------------
    # Change listeners (standing queries)
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[DeltaRecord], None]) -> None:
        """Register a callback fired after each committed batch."""
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[DeltaRecord], None]) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

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
        return len(self._records)


class Logged:
    """What a store and its snapshots share: a ``_journal`` and the chain
    of its records between two versions."""

    @property
    def journal(self) -> DeltaJournal:
        """The store's typed mutation log (shared with snapshots)."""
        return self._journal

    def deltas_since(self, version: int, upto: int | None = None):
        """The unbroken delta chain ``version -> upto`` (None on a gap)."""
        return self._journal.since(version, self.version if upto is None else upto)


class Journalled(Logged):
    """Mixin of a store with one change log, ``_journal``, shared with its
    snapshots, a ``_version`` counter (for :meth:`_log`) and a read-write
    lock, ``_rwlock``; ``_snapshot_type`` builds its snapshot.  Its data
    is read inside :meth:`reading`, and only there."""

    _snapshot_type: Callable
    #: (version, weak reference to its snapshot): see :meth:`snapshot`.
    _snapshot_state: Optional[tuple] = None

    def _log(self, kind: str, items: Iterable = (), before: Iterable = ()) -> DeltaRecord:
        """Bump ``_version`` and log one effective batch (under the store's
        write lock); ``before`` pairs each key written with its pre-image."""
        self._version += 1
        return self._journal.record(self._version - 1, kind, items, before=before)

    def snapshot(self):
        """A read-only view of the store at its current version, cut under
        its read lock: a watermark, not a copy, so a pin costs nothing
        whatever the store holds.  The snapshot of a version is remembered
        weakly: neither store nor snapshot keeps one alive."""
        with self._rwlock.read_locked():
            state, version = self._snapshot_state, self.version
            snapshot = state[1]() if state is not None and state[0] == version else None
            if snapshot is None:
                snapshot = self._snapshot_type(self)
                self._snapshot_state = (version, weakref.ref(snapshot))
            return snapshot

    def reading(self):
        """One consistent read: ``with store.reading() as s`` holds the
        store's read lock for the block, so no writer resizes what the
        read iterates; ``s`` is the store."""
        return self

    def __enter__(self):
        self._rwlock.acquire_read()
        return self

    def __exit__(self, *exc_info) -> None:
        self._rwlock.release_read()


class Snapshot(Logged):
    """Mixin of a store snapshot that is a watermark over its live store.

    A snapshot holds its ``version``, the record of it (the head of the
    live store's log when it was taken) and the configuration a wrapper
    reads (name, id field, fields, analyzer, term dictionary), but no
    data: ``with snapshot.reading() as store`` is the one way to read
    it.  The block holds the live store's read lock; ``store`` is
    the live store while nothing was written since (the live read path,
    nothing filtered), else ``self._at(undo)``, the store as it stood
    rebuilt from ``undo`` (each key the records since wrote, mapped to its
    first pre-image) over :class:`CopyOnWrite` views of the live indexes,
    memoised per chain position.  No writer runs under the read lock, so
    no read iterates a container a writer resizes, and what ``store``
    hands out is good inside the block only.
    """

    def _watch(self, live) -> None:
        """Watch ``live`` from its log's head, at its version (under its
        read lock)."""
        self._live, self._memo = live, (live.journal.head, {}, None)
        self.version, self._journal = live.version, live.journal

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
            record, undo, store = self._memo
            if store is None or record.next is not None:
                undo = dict(undo)
                while record.next is not None:
                    record = record.next
                    for key, value in record.before:
                        undo.setdefault(key, value)
                token = _REPLAYING.set(True)
                try:
                    store = self._at(undo)
                finally:
                    _REPLAYING.reset(token)
                self._memo = (record, undo, store)
            return store
        except BaseException:
            live._rwlock.release_read()
            raise

    def __exit__(self, *exc_info) -> None:
        self._live._rwlock.release_read()


class CopyOnWrite(dict):
    """A shallow copy of an index whose inner containers become
    ``private(value)`` (``None`` when missing) on first access during a
    replay, so its writes never reach the index it copies.  Later reads
    share the live containers (no writer runs under the read lock), so
    ``_own`` holds just the keys the replay touched."""

    def __init__(self, index: dict, private: Callable):
        super().__init__(index)
        self._private, self._own = private, set()

    def __getitem__(self, key):
        if key not in self or (_REPLAYING.get() and key not in self._own):
            self._own.add(key)
            dict.__setitem__(self, key, self._private(dict.get(self, key)))
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def setdefault(self, key, default=None):
        return self[key]
