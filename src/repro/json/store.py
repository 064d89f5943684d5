"""In-memory JSON document store with per-path indexes.

The store is the substrate behind :class:`repro.json.source.JSONSource`:
it keeps native (nested) JSON documents, maintains one
:class:`~repro.json.index.PathIndex` per observed dotted path — which is
also where the planner's estimates and the
:class:`~repro.digest.dataguide.JSONDataguide` structural summary of the
digests read their path statistics from; each index takes (and gives
back) what one document holds at its path in one call.  It keeps no
per-document leaf list: a removal or an upsert walks the stored copy's
leaves again (a stored copy is never mutated after ``add``).  Nor does
it keep a second, columnar copy of the documents: tree patterns are
verified by walking the stored copies (:mod:`repro.json.matcher`), and
:meth:`JSONDocumentStore.encoding_view` builds the XPath-accelerator
encoding only when asked, for the benchmark that still times it.  A read
runs inside ``with store.reading() as s``, under the read lock; a
:class:`JSONSnapshot` is read there and nowhere else.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

from repro.core.deltas import (
    INSERT, REMOVE, UPSERT, CopyOnWrite, DeltaJournal, Journalled, Snapshot)
from repro.digest.dataguide import MAX_SAMPLES, JSONDataguide, PathInfo, leaves
from repro.errors import JSONError
from repro.fulltext.document import Document
from repro.json.accel import StoreEncoding
from repro.json.index import PathIndex
from repro.json.pattern import is_wildcard_path, path_matches
from repro.locks import RWLock


class JSONDocumentStore(Journalled):
    """A named collection of JSON documents, indexed by dotted path."""

    def __init__(self, name: str = "documents", id_field: str = "id",
                 text_path: str | None = None):
        self.name = name
        self.id_field = id_field
        #: Path of the main human-readable content (exposed by generated
        #: queries, like the full-text store's default field).
        self.text_path = text_path
        self._documents: dict[str, dict[str, Any]] = {}
        self._indexes: dict[str, PathIndex] = {}
        self._ranks: dict[str, int] = {}
        self._next_rank = 0
        self._version = 0
        #: The change log (shared with snapshots, which read back
        #: through its chain).
        self._journal = DeltaJournal()
        self._rwlock = RWLock()
        #: ``(version, interior paths)``: every proper prefix of an indexed
        #: path, as of that version (:meth:`holds_below`).
        self._interior: tuple[int, set[str]] | None = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter (used for cache invalidation)."""
        return self._version

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
        indexed (at a fresh insertion rank).
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
                    entry = self._log(UPSERT if replaced else INSERT, added, before)
        if entry is not None:
            self._journal.notify(entry)
        return len(added)

    def remove(self, doc_id: str) -> bool:
        """Drop a document (and its index entries); True when it existed."""
        with self._rwlock.write_locked():
            old = self._deindex_unlocked(doc_id)
            if old is None:
                return False
            entry = self._log(REMOVE, (), ((doc_id, old),))
        self._journal.notify(entry)
        return True

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
        """Drop a document's entries everywhere (its leaves walked again off
        the stored copy); returns it and its rank."""
        document = self._documents.pop(doc_id, None)
        if document is None:
            return None
        for path, values in _leaves_by_path(document).items():
            index = self._indexes.get(path)
            if index is not None:
                index.remove(doc_id, values)
                if not index.document_count:
                    del self._indexes[path]
        return document, self._ranks.pop(doc_id)

    def _index_unlocked(self, doc_id: str, stored: dict[str, Any],
                        rank: int | None = None) -> None:
        """Store and index one (validated, copied) document at ``rank``."""
        self._documents[doc_id] = stored
        if rank is None:
            rank, self._next_rank = self._next_rank, self._next_rank + 1
        self._ranks[doc_id] = rank
        for path, values in _leaves_by_path(stored).items():
            index = self._indexes.get(path)
            if index is None:
                index = PathIndex(path)
                self._indexes[path] = index
            index.add(doc_id, values)

    # ------------------------------------------------------------------
    # XPath-accelerator encoding
    # ------------------------------------------------------------------
    def encoding_view(self) -> StoreEncoding:
        """A columnar encoding of the documents stored now, built afresh
        under the read lock and kept nowhere (no query reads one)."""
        with self._rwlock.read_locked():
            encoding = StoreEncoding()
            encoding.extend(self._documents.items())
            return encoding

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

    def doc_ids_with_path(self, path: str) -> set[str]:
        """Documents exhibiting ``path``, as a leaf or as an interior node:
        the union of the indexes of every path it matches or prefixes (a
        wildcard path through its NFA)."""
        if is_wildcard_path(path):
            def held(indexed: str) -> bool:
                return path_matches(path, indexed, prefix=True)
        else:
            def held(indexed: str) -> bool:
                return indexed == path or indexed.startswith(path + ".")
        out: set[str] = set()
        for indexed_path, index in self._indexes.items():
            if held(indexed_path):
                out |= index.documents()
        return out

    def holds_below(self, path: str) -> bool:
        """Whether some document holds a leaf below ``path`` (so ``path`` is
        an interior node there, which its own index cannot see)."""
        memo = self._interior
        if memo is None or memo[0] != self._version:
            memo = self._interior = (self._version, {
                indexed[:at] for indexed in self._indexes
                for at, char in enumerate(indexed) if char == "."})
        return path in memo[1]

    def insertion_rank(self, doc_id: str) -> int:
        """Monotonic insertion order of ``doc_id`` (for deterministic output)."""
        return self._ranks.get(doc_id, -1)

    def dataguide(self) -> JSONDataguide:
        """The structural summary of the collection, as of now.

        Read off the path indexes (occurrences and value types per path),
        which every write maintains: O(paths), never a pass over the
        documents.  ``sample_values`` are index keys, i.e. normalised.
        """
        guide = JSONDataguide(name=self.name)
        guide.document_count = len(self._documents)
        for path, index in self._indexes.items():
            info = PathInfo(path, count=index.occurrences, types=set(index.types))
            info.sample_values = [key for key in itertools.islice(
                index.postings, MAX_SAMPLES) if key is not None]
            guide.paths[path] = info
        return guide

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"JSONDocumentStore(name={self.name!r}, documents={len(self)}, "
                f"paths={len(self.paths())})")


class JSONSnapshot(Snapshot):
    """What :meth:`JSONDocumentStore.snapshot` returns: the store read at
    one version, through :meth:`reading` alone.  It keeps the store's
    configuration (``name``, ``id_field``, ``text_path``, ``id_of``) and
    never writes."""

    def __init__(self, live: JSONDocumentStore):
        self.name, self.id_field, self.text_path = live.name, live.id_field, live.text_path
        self.id_of = live.id_of
        self._watch(live)

    def _at(self, undo: dict[str, tuple | None]) -> JSONDocumentStore:
        """The live store at this version: what ``undo`` names (doc id ->
        document and rank then, or None) is de-indexed and indexed again
        into copies of the maps and copy-on-write views of the indexes."""
        live = self._live
        at = JSONDocumentStore(live.name, live.id_field, live.text_path)
        at._version, at._ranks = self.version, dict(live._ranks)
        at._documents = dict(live._documents)
        at._indexes = CopyOnWrite(live._indexes, _private_index)
        for doc_id, old in undo.items():
            at._deindex_unlocked(doc_id)
            if old is not None:
                at._index_unlocked(doc_id, *old)
        if any(old is not None for old in undo.values()):  # restored: back in rank order
            at._documents = dict(sorted(at._documents.items(), key=lambda i: at._ranks[i[0]]))
        return at


JSONDocumentStore._snapshot_type = JSONSnapshot


def _private_index(index: PathIndex) -> PathIndex:
    """A copy of ``index`` (1-tuples shared, each set copied on first access)."""
    twin = PathIndex(index.path)
    twin.postings = CopyOnWrite(index.postings, lambda ids: set(ids) if type(ids) is set else ids)
    twin.document_count, twin.occurrences = index.document_count, index.occurrences
    twin.types = dict(index.types)
    return twin


def _leaves_by_path(document: dict[str, Any]) -> dict[str, list[Any]]:
    """Dotted path -> every leaf value ``document`` holds there."""
    grouped: dict[str, list[Any]] = {}
    for path, value in leaves(document):
        grouped.setdefault(path, []).append(value)
    return grouped


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
