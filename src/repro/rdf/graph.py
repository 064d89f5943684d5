"""In-memory RDF triple store over interned term ids.

The glue graph of a mixed instance, as well as every RDF data source
(DBPedia-like, IGN-like), is stored in a :class:`Graph`.  Every term is
interned once to an integer id — an append-only dictionary: an id is
never reused nor reassigned — and the store keeps three permutation
indexes over the ids (SPO, POS, OSP), so that any triple pattern with at
least one constant is answered by dictionary lookups rather than a full
scan, and the BGP engine (:mod:`repro.rdf.bgp`) joins and deduplicates
ints, not terms.  The term-level API (``add*``, ``remove*``, ``match``,
``count``, iteration, ...) encodes and decodes at its edge.  A read runs
inside ``with graph.reading() as g``, under the read lock; a
:class:`GraphSnapshot` is read there and nowhere else.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Callable, Iterable, Iterator

from repro.core.deltas import (
    INSERT, REMOVE, RESET, CopyOnWrite, DeltaJournal, Journalled, Snapshot)
from repro.locks import RWLock
from repro.rdf.terms import (
    RDF_TYPE,
    Literal,
    Term,
    Triple,
    TriplePattern,
    URI,
    Variable,
    triple as make_triple,
)

#: An id index level nothing is found in (never written).
_NONE: dict = {}

#: The fixed positions of a lookup (0 subject, 1 predicate, 2 object) ->
#: the position order of the index answering it, the fixed ones leading:
#: SPO, POS or OSP, picked by the first.
_PATHS = {(): (0, 1, 2), (0,): (0, 1, 2), (1,): (1, 2, 0), (2,): (2, 0, 1),
          (0, 1): (0, 1, 2), (1, 2): (1, 2, 0), (0, 2): (2, 0, 1), (0, 1, 2): (0, 1, 2)}


class TermDictionary(dict):
    """Term <-> integer id, append-only: an id is never reused nor
    reassigned, so a graph, its snapshots and its copies (a graph and its
    saturation G∞) share one dictionary and no read translates ids.  As a
    mapping it takes an id to the term's Python value, filled on first
    use: the one place a term is decoded for the mediator (a URI reads as
    its string, a literal as :meth:`~repro.rdf.terms.Literal.to_python`).
    """

    __slots__ = ("ids", "terms", "_lock")

    def __init__(self) -> None:
        super().__init__()
        self.ids: dict[Term, int] = {}
        self.terms: list[Term] = []
        self._lock = threading.Lock()

    def intern(self, term: Term) -> int:
        """The id of ``term``, a fresh one if it has none (its term is
        stored before the id is published to lock-free readers)."""
        found = self.ids.get(term)
        if found is None:
            with self._lock:
                found = self.ids.get(term)
                if found is None:
                    self.terms.append(term)
                    found = self.ids[term] = len(self.terms) - 1
        return found

    def __missing__(self, term_id: int) -> object:
        term = self.terms[term_id]
        value = self[term_id] = (term.value if isinstance(term, URI) else
                                 term.to_python() if isinstance(term, Literal) else term)
        return value


def constant(value) -> Callable[[tuple], object]:
    """A key getter of :meth:`Graph.probe` ignoring the row: ``value``."""
    return lambda row: value


class Graph(Journalled):
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
        self.dictionary = TermDictionary()
        self._spo: dict[int, dict[int, set[int]]] = defaultdict(lambda: defaultdict(set))
        self._pos: dict[int, dict[int, set[int]]] = defaultdict(lambda: defaultdict(set))
        self._osp: dict[int, dict[int, set[int]]] = defaultdict(lambda: defaultdict(set))
        #: Triples per predicate id, kept on write: a predicate-only count
        #: is one lookup.
        self._pcount: dict[int, int] = {}
        self._size = 0
        self._additions = 0
        self._removals = 0
        #: The change log: one record per committed batch, shared with
        #: snapshots, which read back through its chain.
        self._journal = DeltaJournal()
        self._rwlock = RWLock()
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

    def _add_ids(self, s: int, p: int, o: int) -> bool:
        objects = self._spo[s][p]
        if o in objects:
            return False
        objects.add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        self._pcount[p] = self._pcount.get(p, 0) + 1
        self._size += 1
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
        return self._write(INSERT, triples, self.dictionary.intern, self._add_ids)

    def remove(self, t: Triple) -> bool:
        """Remove a triple; returns True if it was present.

        Emptied index buckets are pruned so that add/remove churn does
        not grow the permutation indexes without bound.
        """
        return bool(self.remove_all((t,)))

    def _remove_ids(self, s: int | None, p: int | None, o: int | None) -> bool:
        if o is None or o not in self._spo.get(s, _NONE).get(p, ()):
            return False
        _discard_pruning(self._spo, s, p, o)
        _discard_pruning(self._pos, p, o, s)
        _discard_pruning(self._osp, o, s, p)
        left = self._pcount.pop(p) - 1
        if left:
            self._pcount[p] = left
        self._size -= 1
        return True

    def remove_all(self, triples: Iterable[Triple]) -> int:
        """Remove every triple of ``triples``; return how many were present.

        Like :meth:`add_all`, atomic with respect to snapshots and a
        single version bump per effective batch.
        """
        return len(self._write(REMOVE, triples, self.dictionary.ids.get, self._remove_ids))

    def _write(self, kind: str, triples: Iterable[Triple], encode, apply) -> list[Triple]:
        """One batch under the write lock: the triples ``apply`` changed
        (given their ``encode``-d ids), committed as one version."""
        with self._rwlock.write_locked():
            done, keys = [], []
            for t in triples:
                key = (encode(t.subject), encode(t.predicate), encode(t.obj))
                if apply(*key):
                    done.append(t)
                    keys.append(key)
            if not done:
                return []
            entry = self._commit(kind, done, keys)
        self._journal.notify(entry)
        return done

    def clear(self) -> None:
        """Remove every triple."""
        with self._rwlock.write_locked():
            if not self._size:
                return
            entry = self._commit(RESET, (), self.probe({}, [()])[1])
            for index in (self._spo, self._pos, self._osp, self._pcount):
                index.clear()
            self._size = 0
        self._journal.notify(entry)

    def _commit(self, kind: str, triples: Iterable[Triple], keys: list[tuple]):
        """Count and log one effective batch, each id triple it wrote with
        whether it was present before (under the write lock)."""
        pre = self._additions + self._removals
        if kind == INSERT:
            self._additions += 1
        else:
            self._removals += 1
        return self._journal.record(pre, kind, triples,
                                    before=((key, kind != INSERT) for key in keys))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
    def additions(self) -> int:
        """Number of effective triple additions since construction."""
        return self._additions

    @property
    def removals(self) -> int:
        """Number of effective removal events since construction."""
        return self._removals

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        terms = self.dictionary.terms
        return (Triple(terms[s], terms[p], terms[o]) for s, p, o in self.probe({}, [()])[1])

    def __contains__(self, t: Triple) -> bool:
        ids = self.dictionary.ids
        return isinstance(t, Triple) and ids.get(t.obj, -1) in self._spo.get(
            ids.get(t.subject), _NONE).get(ids.get(t.predicate), ())

    def copy(self, name: str | None = None) -> "Graph":
        """Return an independent copy of the graph over the same term
        dictionary (one version: one batch, journalled as none)."""
        with self.reading() as graph:
            clone = Graph(name or self.name)
            clone.dictionary = graph.dictionary
            for key in graph.probe({}, [()])[1]:
                clone._add_ids(*key)
            clone._additions = int(clone._size > 0)
        return clone

    # ------------------------------------------------------------------
    # Snapshot isolation
    # ------------------------------------------------------------------
    def _decoded(self, found: Iterable[int]) -> set[Term]:
        return set(map(self.dictionary.terms.__getitem__, found))

    def subjects(self, predicate: Term | None = None, obj: Term | None = None) -> set[Term]:
        """Return the distinct subjects matching optional predicate/object.

        Answered directly from the permutation indexes — no
        :class:`Triple` objects are materialised.
        """
        return self._ends(self._spo, self._osp, self._pos, predicate, obj)

    def predicates(self) -> set[Term]:
        """Return every distinct predicate in the graph."""
        return self._decoded(self._pcount)

    def objects(self, subject: Term | None = None, predicate: Term | None = None) -> set[Term]:
        """Return the distinct objects matching optional subject/predicate.

        Like :meth:`subjects`, answered straight from the indexes.
        """
        return self._ends(self._osp, self._pos, self._spo, subject, predicate)

    def _ends(self, every: dict, by_y: dict, by_x: dict, x: Term | None,
              y: Term | None) -> set[Term]:
        """The terms ``by_x[x][y]`` holds, either key free (``every``
        indexes them first, ``by_y`` after ``y``)."""
        ids = self.dictionary.ids
        if x is None:
            return self._decoded(every if y is None else by_y.get(ids.get(y), _NONE))
        inner = by_x.get(ids.get(x), _NONE)
        return self._decoded(set().union(*inner.values()) if y is None
                             else inner.get(ids.get(y), ()))

    def value(self, subject: Term, predicate: Term) -> Term | None:
        """Return one object of ``subject predicate ?o`` or None."""
        return next(iter(self.objects(subject, predicate)), None)

    def resources_of_type(self, rdf_class: URI) -> set[Term]:
        """Return every subject declared of type ``rdf_class`` (no entailment)."""
        return self.subjects(RDF_TYPE, rdf_class)

    def predicate_counts(self) -> dict[Term, int]:
        """Return, for every predicate, the number of triples using it."""
        return {self.dictionary.terms[p]: count for p, count in self._pcount.items()}

    # ------------------------------------------------------------------
    # Pattern matching
    # ------------------------------------------------------------------
    def probe(self, keys: dict[int, Callable[[tuple], int]],
              rows: list[tuple]) -> tuple[tuple[int, ...], list[tuple]]:
        """The id-level access path: each row of ``rows`` extended by the
        free positions of every triple whose fixed positions hold the ids
        ``keys`` give (position -> getter applied to the row: a column of
        it, or a :func:`constant`); returns the free positions, in the
        order appended, and the rows.  One comprehension over the index
        whose leading levels are the fixed positions: probes hash C ints.
        """
        order = _PATHS[tuple(sorted(keys))]
        index = (self._spo, self._pos, self._osp)[order[0]]
        fixed = len(keys)
        a, b, c = ([keys[position] for position in order[:fixed]] + [None] * 3)[:3]
        if fixed == 3:
            found = [row for row in rows if c(row) in index.get(a(row), _NONE).get(b(row), ())]
        elif fixed == 2:
            found = [row + (z,) for row in rows
                     for z in index.get(a(row), _NONE).get(b(row), ())]
        elif fixed == 1:
            found = [row + (y, z) for row in rows
                     for y, zs in index.get(a(row), _NONE).items() for z in zs]
        else:
            every = [(x, y, z) for x, ys in index.items() for y, zs in ys.items() for z in zs]
            found = [row + t for row in rows for t in every]
        return order[fixed:], found

    def match(self, pattern: TriplePattern) -> Iterator[Triple]:
        """Yield every triple matching ``pattern``.

        Equal variables in two positions of the pattern constrain the
        matched triple to repeat the same term in those positions.
        """
        terms, ids = tuple(pattern), self.dictionary.ids
        if any(not isinstance(t, Variable) and t not in ids for t in terms):
            return iter(())
        keys = {i: constant(ids[t]) for i, t in enumerate(terms) if not isinstance(t, Variable)}
        free, rows = self.probe(keys, [()])
        spo, decode, repeated, out = list(terms), self.dictionary.terms, _repeated(terms), []
        for row in rows:
            for position, term_id in zip(free, row):
                spo[position] = decode[term_id]
            if all(spo[i] == spo[j] for i, j in repeated):
                out.append(Triple(*spo))
        return iter(out)

    def count(self, pattern: TriplePattern) -> int:
        """Return the number of triples matching ``pattern``: a
        predicate-only count is the one maintained on write, one constant
        besides the predicate the size of one index bucket."""
        terms, ids = tuple(pattern), self.dictionary.ids
        if any(not isinstance(t, Variable) and t not in ids for t in terms):
            return 0
        s, p, o = (None if isinstance(t, Variable) else ids[t] for t in terms)
        if not _repeated(terms):
            if s is None and o is None:
                return self._size if p is None else self._pcount.get(p, 0)
            if p is not None and (s is None or o is None):
                return len(self._pos.get(p, _NONE).get(o, ()) if s is None
                           else self._spo.get(s, _NONE).get(p, ()))
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
        return self._decoded(self._spo.keys() | self._pcount.keys() | self._osp.keys())

    def literals(self) -> set[Literal]:
        """Return every literal appearing in the object position."""
        return {t for t in self._decoded(self._osp) if isinstance(t, Literal)}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Graph(name={self.name!r}, triples={len(self)})"


class GraphSnapshot(Snapshot):
    """What :meth:`Graph.snapshot` returns: the graph read at one version,
    through :meth:`reading` alone.  It never writes.  It shares the live
    graph's term dictionary; its ``version`` and cut counters
    (``additions``, ``removals``) are the graph's at the time."""

    def __init__(self, live: Graph):
        self.name, self.dictionary = live.name, live.dictionary
        self.additions, self.removals = live._additions, live._removals
        self._watch(live)

    def _at(self, undo: dict[tuple, bool]) -> Graph:
        """The live graph before the writes ``undo`` reverts (id triple ->
        was it present then): its indexes copy-on-write."""
        live = self._live
        at = Graph(live.name)
        at.dictionary = live.dictionary
        at._spo, at._pos, at._osp = (CopyOnWrite(index, _private_inner)
                                     for index in (live._spo, live._pos, live._osp))
        at._pcount, at._size = dict(live._pcount), live._size
        at._additions, at._removals = self.additions, self.removals
        for key, present in undo.items():
            (at._add_ids if present else at._remove_ids)(*key)
        return at


Graph._snapshot_type = GraphSnapshot


def _private_inner(inner: dict | None) -> CopyOnWrite:
    return CopyOnWrite(inner or {}, lambda ids: set(ids or ()))


def _discard_pruning(index: dict[int, dict[int, set[int]]], a: int, b: int, value: int) -> None:
    """Discard ``value`` from ``index[a][b]`` (present), pruning emptied buckets."""
    inner = index[a]
    inner[b].discard(value)
    if not inner[b]:
        del inner[b]
        if not inner:
            del index[a]


def _repeated(terms: tuple) -> list[tuple[int, int]]:
    """Index pairs of positions that hold the same variable."""
    return [(i, j) for i in range(3) for j in range(i + 1, 3)
            if isinstance(terms[i], Variable) and terms[i] == terms[j]]
