"""In-memory JSON document store with per-path indexes.

The store is the substrate behind :class:`repro.json.source.JSONSource`:
it keeps native (nested) JSON documents, maintains one
:class:`~repro.json.index.PathIndex` per observed dotted path — which is
also where the planner's estimates and the
:class:`~repro.digest.dataguide.JSONDataguide` structural summary of the
digests read their path statistics from.
"""

from __future__ import annotations

import copy
import itertools
import threading
from contextlib import nullcontext
from typing import Any, Iterable, TYPE_CHECKING

from repro.core.deltas import (
    INSERT, REMOVE, UPSERT, CopyOnWrite, DeltaJournal, Snapshot, UndoLink, remembered)
from repro.errors import JSONError
from repro.fulltext.document import Document
from repro.json.accel import EncodingView, StoreEncoding
from repro.json.index import PathIndex
from repro.json.pattern import is_wildcard_path, path_matches
from repro.locks import RWLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.digest.dataguide import JSONDataguide


class _EncodingLineage:
    """The one accelerator encoding a live store and its snapshots share.

    ``version`` is the store version whose documents the encoding
    covers: a store ahead of it appends what was written since, a store
    at or behind it only reads.
    """

    __slots__ = ("lock", "encoding", "version")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.encoding: StoreEncoding | None = None
        self.version = -1


class JSONDocumentStore:
    """A named collection of JSON documents, indexed by dotted path."""

    def __init__(self, name: str = "documents", id_field: str = "id",
                 text_path: str | None = None):
        self.name = name
        self.id_field = id_field
        #: Path of the main human-readable content (exposed by generated
        #: queries, like the full-text store's default field).
        self.text_path = text_path
        self._documents: dict[str, dict[str, Any]] = {}
        self._leaves: dict[str, list[tuple[str, object]]] = {}
        self._indexes: dict[str, PathIndex] = {}
        self._ranks: dict[str, int] = {}
        self._next_rank = 0
        self._version = 0
        self._journal = DeltaJournal()
        self._rwlock = RWLock()
        #: The newest link of the undo chain snapshots read back through.
        self._undo = UndoLink()
        #: (version, weak reference to its snapshot): see ``remembered``.
        self._snapshot_state: tuple | None = None
        #: Columnar XPath-accelerator replica, shared with every snapshot
        #: (built lazily by whoever needs it first; appended on insert
        #: and upsert; a removal starts a new lineage).
        self._lineage = _EncodingLineage()
        #: ``(version, view)``: this store's view at that version.
        self._accel_view: tuple[int, EncodingView] | None = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter (used for cache invalidation)."""
        return self._version

    @property
    def journal(self) -> DeltaJournal:
        """The store's typed mutation log (shared with snapshots)."""
        return self._journal

    def deltas_since(self, version: int, upto: int | None = None):
        """The unbroken delta chain ``version -> upto`` (None on a gap)."""
        target = self._version if upto is None else upto
        return self._journal.since(version, target)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, document: dict[str, Any]) -> str:
        """Store (or replace) one document, a batch of one; returns its id."""
        self.add_all((document,))
        return self.id_of(document)

    def add_all(self, documents: Iterable[dict[str, Any]]) -> int:
        """Store (or replace) many documents; returns how many were added.

        The write lock is held across the whole batch, so a concurrent
        snapshot sees all of it or none of it — and the whole batch is
        ONE version bump, so one ingest invalidates derived state once,
        not once per document.  A replaced copy is de-indexed, the new one
        indexed (at a fresh insertion rank) and encoded (the accelerator
        encoding is kept).
        """
        entry = None
        with self._rwlock.write_locked():
            added: list[dict[str, Any]] = []
            before: list[tuple[str, tuple | None]] = []
            try:
                for document in documents:
                    doc_id, stored = self._prepare(document)
                    before.append((doc_id, self._deindex_unlocked(doc_id)))
                    self._index_unlocked(doc_id, stored)
                    added.append(stored)
            finally:
                # Even a partially applied batch (a malformed document
                # mid-way) must advance the version exactly once: some
                # documents landed, so version equality has to keep
                # meaning "unchanged".
                if added:
                    replaced = any(old is not None for _, old in before)
                    entry = self._commit(UPSERT if replaced else INSERT, added, before)
        if entry is not None:
            self._journal.notify(entry)
        return len(added)

    def remove(self, doc_id: str) -> bool:
        """Drop a document (and its index entries); True when it existed."""
        with self._rwlock.write_locked():
            old = self._deindex_unlocked(doc_id)
            if old is None:
                return False
            # The encoding is append-only: a removal starts a new lineage
            # and the next accelerated query encodes from scratch.
            # Snapshots keep the old lineage.
            self._lineage = _EncodingLineage()
            entry = self._commit(REMOVE, (), ((doc_id, old),))
        self._journal.notify(entry)
        return True

    def _commit(self, kind: str, items: list, before: list):
        """Count, journal and chain the undo link of one effective batch
        (under the write lock)."""
        pre = self._version
        self._version += 1
        self._undo = self._undo.append(before)
        # What stood before: the first value each doc id had in ``before``.
        return self._journal.record(pre, pre + 1, kind, items, replaced=[
            old[0] for old in dict(reversed(before)).values() if old is not None])

    # ------------------------------------------------------------------
    def _prepare(self, document: dict[str, Any]) -> tuple[str, dict[str, Any]]:
        """Validate one incoming document; returns ``(doc_id, copy)``."""
        if not isinstance(document, dict):
            raise JSONError(f"JSON store {self.name!r} only stores objects, "
                            f"got {type(document).__name__}")
        stored = _copy_json(document)
        doc_id = self.id_of(stored)
        if doc_id is None:
            raise JSONError(
                f"document is missing its id field {self.id_field!r}: {document}"
            )
        return doc_id, stored

    def id_of(self, document: dict[str, Any]) -> str | None:
        """The id ``document`` is filed under (None: it has no id field)."""
        raw_id = Document(doc_id="_", fields=document).get(self.id_field)
        return None if raw_id is None else str(raw_id)

    def _deindex_unlocked(self, doc_id: str) -> tuple[dict[str, Any], int] | None:
        """Drop a document's entries everywhere; returns it and its rank."""
        document = self._documents.pop(doc_id, None)
        if document is None:
            return None
        for path, value in self._leaves.pop(doc_id, []):
            index = self._indexes.get(path)
            if index is not None:
                index.remove(doc_id, value)
                if not index.presence:
                    del self._indexes[path]
        return document, self._ranks.pop(doc_id)

    def _index_unlocked(self, doc_id: str, stored: dict[str, Any],
                        rank: int | None = None) -> None:
        """Store and index one (validated, copied) document at ``rank``."""
        leaves = list(Document(doc_id=doc_id, fields=stored).flat_fields())
        self._documents[doc_id] = stored
        self._leaves[doc_id] = leaves
        if rank is None:
            rank, self._next_rank = self._next_rank, self._next_rank + 1
        self._ranks[doc_id] = rank
        for path, value in leaves:
            index = self._indexes.get(path)
            if index is None:
                index = PathIndex(path)
                self._indexes[path] = index
            index.add(doc_id, value)

    # ------------------------------------------------------------------
    # Snapshot isolation
    # ------------------------------------------------------------------
    def snapshot(self) -> "JSONDocumentStore":
        """A read-only view of the store at its current version: a
        watermark, not a copy (:class:`~repro.core.deltas.Snapshot`), in
        this store's accelerator lineage."""
        with self._rwlock.read_locked():
            return remembered(self, self._version, lambda: JSONSnapshot(self, self._undo))

    def reading(self):
        """A context yielding what one consistent read reads: the store
        itself (a snapshot yields what stands for its version)."""
        return nullcontext(self)

    # ------------------------------------------------------------------
    # XPath-accelerator encoding
    # ------------------------------------------------------------------
    def encoding_view(self) -> EncodingView:
        """A consistent columnar view over this store's documents.

        The encoding is owned by the *lineage* — the live store and all
        its snapshots — not by any one of them.  Whoever needs it first
        encodes its own documents and publishes the result; a store ahead
        of the lineage appends the documents journalled since (an upsert
        repoints the document's ordinal at its fresh copy, leaving the
        old interval dead), so a document object is encoded once however
        many snapshots query it.  A store behind the lineage appends
        nothing.  Only :meth:`remove` and the compaction of dead copies
        start a new encoding; views handed out earlier keep the old one.

        The view is clamped at the lineage's watermark of the moment and
        memoised per store version.  What keeps a pinned reader on its
        own version is the identity check of
        :meth:`EncodingView.ordinal`: an id whose encoded copy is not the
        object this store holds (upserted before or after the pin, or
        never encoded) is verified by the reference tree-walk instead.
        """
        with self._rwlock.read_locked():
            memo = self._accel_view
            if memo is not None and memo[0] == self._version:
                return memo[1]
            lineage = self._lineage
            with lineage.lock:
                encoding = lineage.encoding
                ahead = self._version > lineage.version
                if (encoding is not None and ahead and encoding.doc_count
                        > 2 * len(self._documents) + 64):
                    encoding = None  # dead upsert copies dominate: compact
                if encoding is None:
                    encoding = lineage.encoding = StoreEncoding()
                    encoding.extend(self._documents.items())
                    lineage.version = self._version
                elif ahead:
                    encoding.extend(self._written_since(lineage.version))
                    lineage.version = self._version
                view = encoding.view_for(encoding.doc_count)
            self._accel_view = (self._version, view)
            return view

    def _written_since(self, version: int) -> Iterable[tuple[str, dict[str, Any]]]:
        """The current documents written after ``version``.

        Read off the journal; on a gap every document is offered, and
        :meth:`StoreEncoding.extend` skips the ones already encoded.
        """
        records = self._journal.since(version, self._version)
        if records is None:
            return self._documents.items()
        written = {}
        for record in records:
            for document in record.items:
                doc_id = self.id_of(document)
                if self._documents.get(doc_id) is document:
                    written[doc_id] = document
        return written.items()

    def encoding_counts(self) -> tuple[int, int]:
        """``(live, dead)`` document ordinals of the lineage's encoding."""
        encoding = self._lineage.encoding
        if encoding is None:
            return 0, 0
        live = len(encoding.ordinals)
        return live, encoding.doc_count - live

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, doc_id: str) -> dict[str, Any] | None:
        """The stored document with ``doc_id`` (or None)."""
        return self._documents.get(doc_id)

    def documents(self) -> list[dict[str, Any]]:
        """Every stored document, in insertion order."""
        return list(self._documents.values())

    def items(self) -> list[tuple[str, dict[str, Any]]]:
        """(doc_id, document) pairs, in insertion order."""
        return list(self._documents.items())

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._documents

    # ------------------------------------------------------------------
    # Indexes and statistics
    # ------------------------------------------------------------------
    def paths(self) -> list[str]:
        """Every indexed dotted path, sorted."""
        return sorted(self._indexes)

    def index_for(self, path: str) -> PathIndex | None:
        """The :class:`PathIndex` of ``path`` (None when never observed)."""
        return self._indexes.get(path)

    def values_by_path(self) -> dict[str, list[object]]:
        """Raw leaf values grouped by path, in one pass over the store."""
        grouped: dict[str, list[object]] = {}
        for leaves in self._leaves.values():
            for path, value in leaves:
                grouped.setdefault(path, []).append(value)
        return grouped

    def doc_ids_with_path(self, path: str) -> set[str]:
        """Documents exhibiting ``path`` — a leaf path (via its index), an
        interior node (via the indexes of its descendant leaves), or a
        wildcard path (via every indexed path it can match a prefix of)."""
        if is_wildcard_path(path):
            out: set[str] = set()
            for indexed_path, index in self._indexes.items():
                if path_matches(path, indexed_path, prefix=True):
                    out |= index.presence
            return out
        index = self._indexes.get(path)
        if index is not None:
            return set(index.presence)
        prefix = path + "."
        out = set()
        for indexed_path, descendant in self._indexes.items():
            if indexed_path.startswith(prefix):
                out |= descendant.presence
        return out

    def insertion_rank(self, doc_id: str) -> int:
        """Monotonic insertion order of ``doc_id`` (for deterministic output)."""
        return self._ranks.get(doc_id, -1)

    def dataguide(self) -> "JSONDataguide":
        """The structural summary of the collection, as of now.

        Read off the path indexes (occurrences and value types per path),
        which every write maintains: O(paths), never a pass over the
        documents.  ``sample_values`` are index keys, i.e. normalised.
        """
        # Imported lazily: repro.digest builds digests *of* sources and
        # already depends on repro.core, which depends on this package.
        from repro.digest.dataguide import JSONDataguide, PathInfo

        guide = JSONDataguide(name=self.name)
        with self._rwlock.read_locked():
            guide.document_count = len(self._documents)
            for path, index in self._indexes.items():
                info = PathInfo(path, count=index.occurrences, types=set(index.types))
                info.sample_values = [key for key in itertools.islice(
                    index.postings, info.max_samples) if key is not None]
                guide.paths[path] = info
        return guide

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"JSONDocumentStore(name={self.name!r}, documents={len(self)}, "
                f"paths={len(self.paths())})")


class JSONSnapshot(Snapshot, JSONDocumentStore, reads=(
        "get", "documents", "items", "paths", "values_by_path", "doc_ids_with_path",
        "insertion_rank", "dataguide", "encoding_view", "__len__", "__contains__")):
    """What :meth:`JSONDocumentStore.snapshot` returns: the store read at
    one version, a wrapper matching on what one :meth:`reading` yields;
    any other read is a reading of its own.  It never writes."""

    def __init__(self, live: JSONDocumentStore, link: UndoLink):
        self.name, self.id_field, self.text_path = live.name, live.id_field, live.text_path
        self._version, self._journal, self._rwlock = live._version, live._journal, live._rwlock
        self._lineage = live._lineage
        self._watch(live, link)

    def _at(self, undo: dict[str, tuple | None]) -> JSONDocumentStore:
        """The live store at this version: what ``undo`` names (doc id ->
        document and rank then, or None) is de-indexed and indexed again
        into copies of the maps and copy-on-write views of the indexes."""
        live = self._live
        at = JSONDocumentStore(live.name, live.id_field, live.text_path)
        at._version, at._lineage, at._ranks = self._version, self._lineage, dict(live._ranks)
        at._documents, at._leaves = dict(live._documents), dict(live._leaves)
        at._indexes = CopyOnWrite(live._indexes, _private_index)
        for doc_id, old in undo.items():
            at._deindex_unlocked(doc_id)
            if old is not None:
                at._index_unlocked(doc_id, *old)
        if any(old is not None for old in undo.values()):  # restored: back in rank order
            at._documents = dict(sorted(at._documents.items(), key=lambda i: at._ranks[i[0]]))
        return at

    def index_for(self, path: str) -> PathIndex | None:
        with self.reading() as store:
            return copy.deepcopy(store.index_for(path))


def _private_index(index: PathIndex) -> PathIndex:
    """A copy of ``index`` (each posting set copied on first access)."""
    twin = PathIndex(index.path)
    twin.postings = CopyOnWrite(index.postings, lambda ids: set(ids or ()))
    twin.presence, twin._extra_values = set(index.presence), dict(index._extra_values)
    twin.occurrences, twin.types = index.occurrences, dict(index.types)
    return twin


def _copy_json(value: Any) -> Any:
    """Structural copy of a JSON tree without recursion.

    Replaces ``copy.deepcopy`` on the insert path: pathologically deep
    documents (depth 10k+) must not blow the interpreter's recursion
    limit.  Dict and list containers are copied; every other value —
    immutable in well-formed JSON — is shared.
    """
    if isinstance(value, dict):
        root: Any = {}
    elif isinstance(value, list):
        root = []
    else:
        return value
    stack: list[tuple[Any, Any]] = [(value, root)]
    while stack:
        source, target = stack.pop()
        if isinstance(source, dict):
            for key, child in source.items():
                if isinstance(child, (dict, list)):
                    twin: Any = {} if isinstance(child, dict) else []
                    stack.append((child, twin))
                    target[key] = twin
                else:
                    target[key] = child
        else:
            for child in source:
                if isinstance(child, (dict, list)):
                    twin = {} if isinstance(child, dict) else []
                    stack.append((child, twin))
                    target.append(twin)
                else:
                    target.append(child)
    return root
