"""The cross-query sub-query result cache and its source layer.

The mediator's dominant cost is shipping sub-queries to sources; across
a repeated workload (the paper's data-journalism scenario: the same
fact-checking CMQs run over and over as tweets stream in) most of those
calls recompute answers the mediator has already seen.
:class:`SubQueryResultCache` memoises per-source sub-query results under
a fully canonical key::

    (source URI, source identity token, canonical query, canonical binding)

The identity token (allocated per wrapper, never reused) keeps a cache
shared across several instances safe: two glue graphs both live under
the ``#glue`` URI, yet can never serve each other's rows.

*Source versions* make invalidation precise: every store (RDF graph,
relational tables, full-text store, JSON store) bumps a version counter
on mutation, and each entry is stamped with the version it was read at.
A probe hits only an entry stamped with the version it reads, so a write
makes exactly that source's entries stale, in place — results of every
other source keep serving hits.  A stale entry is the repair engine's
merge base; a repair, or the next miss, replaces it.  One probe has one
entry, whatever the number of writes.

An entry's batches are :class:`~repro.engine.batch.BindingBatch` objects
under *canonical* variable names, immutable once inserted: a hit is the
entry's own row lists under a renamed header, shared by every reader; a
repair publishes a new entry.

:class:`CachedSource` layers the cache over a
:class:`~repro.core.sources.DataSource`.  The layer is transparent: it
answers ``execute_batch`` in batches, as every source does, and every
other read is the wrapped source's own, so an executor keeps one
catalog — a layer per source — for its planner, its statistics and its
dispatch.  A probe is per call — one LRU pass, one repair call for
the keys whose entry is older than the call's version — and only its
misses go to the wrapped source's ``execute_batch``, so a batched bind
join ships IN-lists / disjunctions of uncached bindings; a flush the
bind join probed (:meth:`CachedSource.peek`) is not keyed, probed or
repaired again.  A layer holds no per-execution state: each probe's
counts go to the tally of the execution making it (:func:`counting`).
Sources whose ``version()`` is unknown (``None``) are never cached.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.cache.keys import CanonicalQuery, canonical_query
from repro.cache.lru import CacheStats, LRUCache
from repro.core.sources import DataSource, Row, SourceQuery
from repro.engine.batch import BindingBatch, as_batches, dict_rows
from repro.errors import MixedQueryError


class ProbeTally(list):
    """The ``(hits, misses)`` of each probe one execution made."""

    hits = property(lambda self: sum(pair[0] for pair in self))
    misses = property(lambda self: sum(pair[1] for pair in self))


#: The tally of the execution in progress.  A pooled call runs in a copy
#: of its caller's context (:func:`repro.engine.parallel.run_calls`), so
#: it appends to the same list, and one ``append`` needs no lock.
_TALLY: ContextVar[Optional[ProbeTally]] = ContextVar("probe_tally", default=None)


@contextmanager
def counting() -> Iterator[ProbeTally]:
    """Count every probe made inside the block, on whichever thread its
    calls run, into one fresh tally (an enclosing one counts none of them)."""
    tally = ProbeTally()
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)


class SubQueryResultCache:
    """LRU of sub-query results shared by every executor of an instance:
    one entry per probe, ``(version, batches)``."""

    def __init__(self, max_entries: int = 4096):
        self.entries = LRUCache(max_entries)

    @property
    def stats(self) -> CacheStats:
        return self.entries.stats

    # ------------------------------------------------------------------
    @staticmethod
    def keys(source, canon: CanonicalQuery,
             binding_keys: Iterable[Optional[tuple]]) -> list[Optional[tuple]]:
        """The cache key of each probe (``None``: uncacheable): the
        ``source``'s URI *and* identity token enter it (a layer's are its
        wrapped source's), a wrapper without one (a subclass skipping
        ``DataSource.__init__``) has none."""
        token = getattr(source, "cache_token", None)
        if token is None:
            return [None for _ in binding_keys]
        uri, query = source.uri, canon.key
        return [None if key is None else (uri, token, query, key)
                for key in binding_keys]

    def insert(self, key: tuple, version: int, canon: CanonicalQuery, rows: list) -> None:
        """Insert an answer (batches or dict rows) in the query's own
        names, read at ``version``."""
        self.insert_canonical(key, version, canon.canonical_batches(as_batches(rows)))

    def insert_canonical(self, key: tuple, version: int,
                         batches: list[BindingBatch]) -> None:
        """Stamp batches already in canonical variable names (repair) with
        ``version``, replacing the probe's entry: the last insert wins."""
        self.entries.put(key, (version, batches))

    def fetch_stale(self, source, query: SourceQuery,
                    bindings: Row) -> Optional[list[BindingBatch]]:
        """The rows last cached for this probe, at whatever version.

        Serving them is *degraded* reading: the source may have mutated
        since.  Callers must flag the result (``trace.degraded``) — this
        path exists so an outage yields flagged stale rows instead of a
        failed query.  Touches no hit/miss counters.
        """
        canon = canonical_query(query)
        key = canon and self.keys(source, canon, [canon.key_of(bindings)])[0]
        entry = None if key is None else self.entries.peek(key)
        return None if entry is None else canon.original_batches(entry[1])

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)


class CachedSource:
    """A source with the result cache in front of it: a transparent layer.

    Its own methods are what the cache changes: :meth:`execute_batch`
    (and :meth:`execute`, its dict edge) and the bind join's per-flush
    :meth:`peek`.  Every other name that
    :class:`~repro.core.sources.DataSource` declares (``uri``,
    ``version``, ``estimate``, ``digest``, ``repair_delta``, ``journal``,
    ...) reads through to the wrapped source's own answer.  The layer is
    deliberately not a ``DataSource``: a base default would then answer
    in the source's place.

    A hit *shares* the entry's row lists (immutable tuples, lists never
    mutated: no copy).  The source version is read once per call, not
    per binding.  The layer keeps nothing of an execution's own, so
    concurrent executions share it.
    """

    def __init__(self, inner: DataSource, cache: SubQueryResultCache, repair=None):
        self.inner = inner
        self.cache = cache
        # Optional delta-join repair engine (duck-typed —
        # :class:`repro.cache.repair.RepairEngine`): an entry stamped
        # with an older source version is offered for repair; success
        # re-stamps the entry and counts as a hit, since no source call
        # happened.
        self.repair = repair

    def _probe(self, version: int, query: SourceQuery, canon: CanonicalQuery,
               keys: list[Optional[tuple]],
               binding: Callable[[int], Row]) -> list[Optional[list[BindingBatch]]]:
        """Each key's entry (canonical names) or ``None``, each probe counted
        once.  One LRU pass sorts the keys by their entry's stamp: the
        probe's ``version`` is a hit; an older one is a repair base, and
        the bases go to ONE repair call, with ``binding(i)`` (a repaired
        key reads as a hit: no source call happened); anything else — no
        entry, a newer stamp (its key is set to ``None`` in ``keys``: an
        older pin's answer never replaces it), a base repair declined — is
        a miss."""
        found = self.cache.entries.get_many(keys, lambda entry: entry[0] == version)
        stored: list = [None] * len(keys)
        older: list[int] = []
        newer = 0
        for i, entry in enumerate(found):
            if entry is None:
                continue
            if entry[0] == version:
                stored[i] = entry[1]
            elif entry[0] < version:
                older.append(i)
            else:
                keys[i] = None
                newer += 1
        if older or newer:
            repaired = 0
            if self.repair is not None and older:
                for i, merged in zip(older, self.repair.repair(
                        self.inner, version, query, canon, [keys[i] for i in older],
                        [found[i] for i in older], lambda at: binding(older[at]))):
                    stored[i] = merged
                    repaired += merged is not None
            self.cache.entries.count(repaired, len(older) - repaired + newer)
        tally = _TALLY.get()
        if tally is not None:
            hits = len(stored) - stored.count(None)
            tally.append((hits, len(keys) - keys.count(None) + newer - hits))
        return stored

    # -- cached protocol ----------------------------------------------------
    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        """``query``'s rows under ``bindings`` as fresh dicts, through the cache."""
        return dict_rows(self.execute_batch(query, [bindings or {}])[0])

    def execute_batch(self, query: SourceQuery, bindings_batch: Sequence[Row],
                      probed: tuple | None = None) -> list[list[BindingBatch]]:
        """Answer the batch from the cache, shipping only its misses.

        Every miss, keyed or not, goes into ONE ``execute_batch`` call of
        the wrapped source and the keyed answers are cached.  What
        :meth:`peek` ``probed`` is not probed again.
        """
        batch = [dict(b or {}) for b in bindings_batch]
        version = self.inner.version()
        canon = None if version is None else canonical_query(query)
        if canon is None:
            return self._fetch(query, batch)
        if probed is not None and probed[0] == version and len(probed[2]) == len(batch):
            _, canon, keys = probed
            results: list = [None] * len(batch)
        else:
            keys = self.cache.keys(self.inner, canon, map(canon.key_of, batch))
            results = [None if entry is None else canon.original_batches(entry)
                       for entry in self._probe(version, query, canon, keys,
                                                batch.__getitem__)]
        misses = [i for i, batches in enumerate(results) if batches is None]
        if not misses:
            return results
        fetched = self._fetch(query, [batch[i] for i in misses])
        # A live wrapper written during the fetch answered newer rows than
        # ``version``: they are not cached under it.  A pin never moves.
        keep = self.inner.pinned_at is not None or self.inner.version() == version
        for i, batches in zip(misses, fetched):
            results[i] = batches
            if keep and keys[i] is not None:
                self.cache.insert(keys[i], version, canon, batches)
        return results

    def _fetch(self, query: SourceQuery, batch: list[Row]) -> list[list[BindingBatch]]:
        """The wrapped source's answer to ``batch``: one entry per binding."""
        fetched = self.inner.execute_batch(query, batch)
        if len(fetched) != len(batch):
            raise MixedQueryError(
                f"source {self.inner.uri!r} answered {len(fetched)} bindings "
                f"of a {len(batch)}-binding batch")
        return fetched

    def peek(self, atom, canon: CanonicalQuery,
             bindings: Sequence[tuple[tuple[str, ...], tuple]],
             ) -> tuple[list[Optional[list[BindingBatch]]], Optional[tuple]]:
        """The bind join's probe of a flush of ``(names, values)`` pairs in
        the CMQ names of ``atom``, keyed by its compiled keyers: ONE
        :meth:`_probe`.  Returns ``(answers, probed)``: an entry's own rows
        under the atom's translated header (or ``None``), and the misses'
        keys for :meth:`execute_batch`."""
        version = self.inner.version()
        if version is None:
            return [None] * len(bindings), None
        keys = self.cache.keys(self.inner, canon, [
            atom.binding_keyer(canon, names)(values) for names, values in bindings])
        stored = self._probe(version, atom.query, canon, keys,
                             lambda i: atom.formal_bindings(dict(zip(*bindings[i]))))
        return ([None if entry is None else atom.translate(entry, canon) for entry in stored],
                (version, canon, [key for key, entry in zip(keys, stored) if entry is None]))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CachedSource({self.inner!r})"


# Read through as class properties, derived from the protocol so none is
# missed: planning and dispatch read ``uri``, ``cache_token``, ``version``
# and ``accepts`` some twenty times a query, and a property costs a tenth
# of the failed lookup a ``__getattr__`` fallback pays on CPython 3.11.
# ``pin`` is not read through: a layer is built over a pin, never pinned.
for _name in {*DataSource.__annotations__, *vars(DataSource)} - {*vars(CachedSource), "pin"}:
    if not _name.startswith("__"):
        setattr(CachedSource, _name, property(attrgetter(f"inner.{_name}")))
