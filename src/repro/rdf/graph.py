"""In-memory RDF triple store with SPO/POS/OSP indexes.

The glue graph of a mixed instance, as well as every RDF data source
(DBPedia-like, IGN-like), is stored in a :class:`Graph`.  The store keeps
three permutation indexes so that any triple pattern with at least one
constant is answered by dictionary lookups rather than a full scan.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext
from typing import Iterable, Iterator

from repro.core.deltas import (
    DeltaJournal, INSERT, REMOVE, RESET, CopyOnWrite, Snapshot, UndoLink, remembered)
from repro.errors import RDFError
from repro.locks import RWLock
from repro.rdf.terms import (
    RDF_TYPE,
    BlankNode,
    Literal,
    PatternTerm,
    Term,
    Triple,
    TriplePattern,
    URI,
    Variable,
    triple as make_triple,
)


class Graph:
    """A set of RDF triples with pattern-matching access paths.

    Parameters
    ----------
    name:
        Optional human-readable name (used by digests and the catalog).
    triples:
        Optional initial triples.
    """

    def __init__(self, name: str = "graph", triples: Iterable[Triple] | None = None):
        self.name = name
        self._triples: set[Triple] = set()
        self._spo: dict[Term, dict[Term, set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._pos: dict[Term, dict[Term, set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._osp: dict[Term, dict[Term, set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._additions = 0
        self._removals = 0
        #: Typed mutation log: one record per committed batch, shared
        #: with snapshots so pinned wrappers can replay the same history.
        self._journal = DeltaJournal()
        self._rwlock = RWLock()
        #: The newest link of the undo chain snapshots read back through.
        self._undo = UndoLink()
        #: (version, weak reference to its snapshot): see ``remembered``.
        self._snapshot_state: tuple | None = None
        if triples:
            self.add_all(triples)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, subject: object, predicate: object = None, obj: object = None) -> bool:
        """Add a triple; returns True if it was not already present.

        Accepts either a single :class:`Triple` or three coercible terms.
        """
        if isinstance(subject, Triple) and predicate is None and obj is None:
            t = subject
        else:
            t = make_triple(subject, predicate, obj)
        return bool(self.add_batch((t,)))

    def _add_unlocked(self, t: Triple) -> bool:
        if t in self._triples:
            return False
        self._triples.add(t)
        s, p, o = t.subject, t.predicate, t.obj
        self._spo[s][p].add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add every triple of ``triples``; return how many were new.

        The write lock is held across the whole batch, so a concurrent
        snapshot sees all of it or none of it.  One effective batch is
        one version bump — a thousand-triple ingest invalidates derived
        state once, not a thousand times.
        """
        return len(self.add_batch(triples))

    def add_batch(self, triples: Iterable[Triple]) -> list[Triple]:
        """Like :meth:`add_all`, but returns the triples actually new
        (callers maintaining derived state — saturation — need the exact
        delta, not just its size)."""
        with self._rwlock.write_locked():
            fresh = [t for t in triples if self._add_unlocked(t)]
            if not fresh:
                return []
            entry = self._commit(INSERT, fresh)
        self._journal.notify(entry)
        return fresh

    def remove(self, t: Triple) -> bool:
        """Remove a triple; returns True if it was present.

        Emptied index buckets are pruned so that add/remove churn does
        not grow the permutation indexes without bound.
        """
        return bool(self.remove_all((t,)))

    def _remove_unlocked(self, t: Triple) -> bool:
        if t not in self._triples:
            return False
        self._triples.discard(t)
        s, p, o = t.subject, t.predicate, t.obj
        _discard_pruning(self._spo, s, p, o)
        _discard_pruning(self._pos, p, o, s)
        _discard_pruning(self._osp, o, s, p)
        return True

    def remove_all(self, triples: Iterable[Triple]) -> int:
        """Remove every triple of ``triples``; return how many were present.

        Like :meth:`add_all`, atomic with respect to snapshots and a
        single version bump per effective batch.
        """
        with self._rwlock.write_locked():
            gone = [t for t in triples if self._remove_unlocked(t)]
            if not gone:
                return 0
            entry = self._commit(REMOVE, gone)
        self._journal.notify(entry)
        return len(gone)

    def clear(self) -> None:
        """Remove every triple."""
        with self._rwlock.write_locked():
            if not self._triples:
                return
            entry = self._commit(RESET, tuple(self._triples))
            self._triples.clear()
            self._spo.clear()
            self._pos.clear()
            self._osp.clear()
        self._journal.notify(entry)

    def _commit(self, kind: str, triples: Iterable[Triple]):
        """Count, journal and chain the undo link of one effective batch
        (under the write lock)."""
        pre = self._additions + self._removals
        if kind == INSERT:
            self._additions += 1
        else:
            self._removals += 1
        self._undo = self._undo.append((t, kind != INSERT) for t in triples)
        return self._journal.record(pre, pre + 1, kind, () if kind == RESET else triples)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rwlock(self) -> RWLock:
        """The store's reader-writer lock.

        Mutators take the write side internally; a snapshot's reads take
        the read side (:meth:`reading`).
        """
        return self._rwlock

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every effective change).

        Consumers (cached saturations, the mediator's result cache) key
        derived state on this value: equality of versions guarantees the
        graph is byte-for-byte unchanged — unlike ``len()``, which cannot
        see a removal paired with an addition.
        """
        return self._additions + self._removals

    @property
    def journal(self) -> DeltaJournal:
        """The store's typed mutation log (shared with snapshots)."""
        return self._journal

    def deltas_since(self, version: int, upto: int | None = None):
        """The unbroken delta chain ``version -> upto`` (None on a gap)."""
        target = self.version if upto is None else upto
        return self._journal.since(version, target)

    @property
    def additions(self) -> int:
        """Number of effective triple additions since construction."""
        return self._additions

    @property
    def removals(self) -> int:
        """Number of effective removal events since construction."""
        return self._removals

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def copy(self, name: str | None = None) -> "Graph":
        """Return an independent copy of the graph."""
        return Graph(name or self.name, self)

    # ------------------------------------------------------------------
    # Snapshot isolation
    # ------------------------------------------------------------------
    def snapshot(self) -> "Graph":
        """A read-only view of the graph at its current version.

        A watermark, not a copy (:class:`~repro.core.deltas.Snapshot`): a
        pin costs nothing whatever the graph holds, a write batch one undo
        link.  ``version`` and the counters are the graph's at the time.
        """
        with self._rwlock.read_locked():
            return remembered(self, self.version, lambda: GraphSnapshot(self, self._undo))

    def reading(self):
        """A context yielding what one consistent read reads: the graph
        itself (a snapshot yields what stands for its version)."""
        return nullcontext(self)

    def subjects(self, predicate: Term | None = None, obj: Term | None = None) -> set[Term]:
        """Return the distinct subjects matching optional predicate/object.

        Answered directly from the permutation indexes — no
        :class:`Triple` objects are materialised.
        """
        if predicate is None and obj is None:
            return set(self._spo)
        if predicate is not None and obj is not None:
            return set(self._pos.get(predicate, {}).get(obj, ()))
        if predicate is not None:
            out: set[Term] = set()
            for subjects in self._pos.get(predicate, {}).values():
                out |= subjects
            return out
        return set(self._osp.get(obj, {}))

    def predicates(self) -> set[Term]:
        """Return every distinct predicate in the graph."""
        return set(self._pos.keys())

    def objects(self, subject: Term | None = None, predicate: Term | None = None) -> set[Term]:
        """Return the distinct objects matching optional subject/predicate.

        Like :meth:`subjects`, answered straight from the indexes.
        """
        if subject is None and predicate is None:
            return set(self._osp)
        if subject is not None and predicate is not None:
            return set(self._spo.get(subject, {}).get(predicate, ()))
        if subject is not None:
            out: set[Term] = set()
            for objects in self._spo.get(subject, {}).values():
                out |= objects
            return out
        return set(self._pos.get(predicate, {}))

    def value(self, subject: Term, predicate: Term) -> Term | None:
        """Return one object of ``subject predicate ?o`` or None."""
        objects = self._spo.get(subject, {}).get(predicate)
        if not objects:
            return None
        return next(iter(objects))

    def resources_of_type(self, rdf_class: URI) -> set[Term]:
        """Return every subject declared of type ``rdf_class`` (no entailment)."""
        return set(self._pos.get(RDF_TYPE, {}).get(rdf_class, set()))

    def predicate_counts(self) -> dict[Term, int]:
        """Return, for every predicate, the number of triples using it."""
        return {
            predicate: sum(len(subjects) for subjects in by_object.values())
            for predicate, by_object in self._pos.items()
        }

    # ------------------------------------------------------------------
    # Pattern matching
    # ------------------------------------------------------------------
    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        """Yield every triple matching ``pattern``.

        Equal variables in two positions of the pattern constrain the
        matched triple to repeat the same term in those positions.
        """
        s, p, o = pattern.subject, pattern.predicate, pattern.obj
        s_fixed = not isinstance(s, Variable)
        p_fixed = not isinstance(p, Variable)
        o_fixed = not isinstance(o, Variable)

        if s_fixed and p_fixed and o_fixed:
            t = Triple(s, p, o)
            candidates: Iterable[Triple] = [t] if t in self._triples else []
        elif s_fixed and p_fixed:
            candidates = (Triple(s, p, obj) for obj in self._spo.get(s, {}).get(p, ()))
        elif p_fixed and o_fixed:
            candidates = (Triple(subj, p, o) for subj in self._pos.get(p, {}).get(o, ()))
        elif s_fixed and o_fixed:
            candidates = (Triple(s, pred, o) for pred in self._osp.get(o, {}).get(s, ()))
        elif s_fixed:
            candidates = (
                Triple(s, pred, obj)
                for pred, objs in self._spo.get(s, {}).items()
                for obj in objs
            )
        elif p_fixed:
            candidates = (
                Triple(subj, p, obj)
                for obj, subjs in self._pos.get(p, {}).items()
                for subj in subjs
            )
        elif o_fixed:
            candidates = (
                Triple(subj, pred, o)
                for subj, preds in self._osp.get(o, {}).items()
                for pred in preds
            )
        else:
            candidates = iter(self._triples)

        repeated = _repeated_variable_positions(pattern)
        if not repeated:
            yield from candidates
            return
        for candidate in candidates:
            values = (candidate.subject, candidate.predicate, candidate.obj)
            if all(values[i] == values[j] for i, j in repeated):
                yield candidate

    def count(self, pattern: TriplePattern) -> int:
        """Return the number of triples matching ``pattern``.

        Fast paths avoid materialising matches for the common shapes used
        by the planner's selectivity estimation.
        """
        s, p, o = pattern.subject, pattern.predicate, pattern.obj
        if _repeated_variable_positions(pattern):
            return sum(1 for _ in self.match(pattern))
        s_fixed = not isinstance(s, Variable)
        p_fixed = not isinstance(p, Variable)
        o_fixed = not isinstance(o, Variable)
        if not (s_fixed or p_fixed or o_fixed):
            return len(self._triples)
        if s_fixed and p_fixed and not o_fixed:
            return len(self._spo.get(s, {}).get(p, ()))
        if p_fixed and o_fixed and not s_fixed:
            return len(self._pos.get(p, {}).get(o, ()))
        if p_fixed and not s_fixed and not o_fixed:
            return sum(len(v) for v in self._pos.get(p, {}).values())
        return sum(1 for _ in self.match(pattern))

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def union(self, other: "Graph", name: str | None = None) -> "Graph":
        """Return a new graph holding the triples of both graphs."""
        result = self.copy(name or f"{self.name}+{other.name}")
        result.add_all(other)
        return result

    def terms(self) -> set[Term]:
        """Return every term (subject, predicate or object) in the graph."""
        out: set[Term] = set()
        for t in self:
            out.update((t.subject, t.predicate, t.obj))
        return out

    def literals(self) -> set[Literal]:
        """Return every literal appearing in the object position."""
        return {t.obj for t in self if isinstance(t.obj, Literal)}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Graph(name={self.name!r}, triples={len(self)})"


class GraphSnapshot(Snapshot, Graph, reads=(
        "count", "subjects", "objects", "value", "predicates", "resources_of_type",
        "predicate_counts", "terms", "literals", "__len__", "__contains__")):
    """What :meth:`Graph.snapshot` returns: the graph read at one version,
    each read one :meth:`reading` of the live graph (a lazy answer —
    ``match``, iteration — is materialised inside it).  It never writes."""

    def __init__(self, live: Graph, link: UndoLink):
        self.name = live.name
        self._additions, self._removals = live._additions, live._removals
        self._journal, self._rwlock = live._journal, live._rwlock
        self._watch(live, link)

    def _at(self, undo: dict[Triple, bool]) -> Graph:
        """The live graph before the writes ``undo`` reverts (triple -> was
        it present then): its triple set copied, its indexes copy-on-write."""
        live = self._live
        at = Graph(live.name)
        at._triples = set(live._triples)
        at._spo, at._pos, at._osp = (CopyOnWrite(index, _private_inner)
                                     for index in (live._spo, live._pos, live._osp))
        for t, present in undo.items():
            if present:
                at._add_unlocked(t)
            else:
                at._remove_unlocked(t)
        return at

    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        with self.reading() as graph:
            return iter(list(graph.match(pattern)))

    def __iter__(self) -> Iterator[Triple]:
        with self.reading() as graph:
            return iter(list(graph))


def _private_inner(inner: dict | None) -> CopyOnWrite:
    return CopyOnWrite(inner or {}, lambda terms: set(terms or ()))


def _discard_pruning(index: dict[Term, dict[Term, set[Term]]],
                     a: Term, b: Term, value: Term) -> None:
    """Discard ``value`` from ``index[a][b]``, pruning emptied buckets."""
    inner = index.get(a)
    if inner is None:
        return
    bucket = inner.get(b)
    if bucket is None:
        return
    bucket.discard(value)
    if not bucket:
        del inner[b]
        if not inner:
            del index[a]


def _repeated_variable_positions(pattern: TriplePattern) -> list[tuple[int, int]]:
    """Return index pairs of positions that hold the same variable."""
    terms: list[PatternTerm] = [pattern.subject, pattern.predicate, pattern.obj]
    pairs = []
    for i in range(3):
        for j in range(i + 1, 3):
            if isinstance(terms[i], Variable) and terms[i] == terms[j]:
                pairs.append((i, j))
    return pairs
