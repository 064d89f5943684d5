"""The cross-query sub-query result cache and its source layer.

The mediator's dominant cost is shipping sub-queries to sources; across
a repeated workload (the paper's data-journalism scenario: the same
fact-checking CMQs run over and over as tweets stream in) most of those
calls recompute answers the mediator has already seen.
:class:`SubQueryResultCache` memoises per-source sub-query results under
a fully canonical key::

    (source URI, source identity token, source version,
     canonical query, canonical binding)

The identity token (allocated per wrapper, never reused) keeps a cache
shared across several instances safe: two glue graphs both live under
the ``#glue`` URI, yet can never serve each other's rows.

*Source versions* make invalidation precise: every store (RDF graph,
relational tables, full-text store, JSON store) bumps a version counter
on mutation, so an update to one source orphans exactly that source's
entries — results of every other source keep serving hits, and the
orphaned entries age out of the LRU.

An entry is a list of :class:`~repro.engine.batch.BindingBatch` objects
under *canonical* variable names, immutable once inserted: a hit is the
entry's own row lists under a renamed header, shared by every reader; a
repair publishes a new entry.

:class:`CachedSource` layers the cache over a
:class:`~repro.core.sources.DataSource`.  The layer is transparent: it
answers ``execute_batch`` in batches, as every source does, and every
other read is the wrapped source's own, so an executor keeps one
catalog — a layer per source — for its planner, its statistics and its
dispatch.  A probe is per call — one LRU pass, one repair call for
its stale keys — and only its misses go to the wrapped source's
``execute_batch``, so a batched bind join ships IN-lists /
disjunctions of uncached bindings; a flush the bind join probed
(:meth:`CachedSource.peek`) is not keyed, probed or repaired again.
Sources whose ``version()`` is unknown (``None``) are never cached.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from repro.cache.keys import CanonicalQuery, canonical_query
from repro.cache.lru import CacheStats, LRUCache
from repro.core.sources import DataSource, Row, SourceQuery
from repro.engine.batch import BindingBatch, as_batches, dict_rows
from repro.errors import MixedQueryError

class SubQueryResultCache:
    """LRU of sub-query results shared by every executor of an instance."""

    def __init__(self, max_entries: int = 4096):
        self.entries = LRUCache(max_entries, on_evict=self._entry_evicted)
        self._lock = threading.RLock()
        # Version-independent index: logical probe (URI, token, query,
        # binding) -> the full key of the *latest* inserted entry.  It
        # powers graceful degradation — when a remote source is down its
        # current version is unknowable, yet the mediator can still find
        # the freshest rows it ever cached for the probe.  Pointers are
        # dropped by ``_entry_evicted`` when the LRU evicts their target,
        # so the index never outgrows (or outlives) the entries map.
        self._stale: dict[tuple, tuple] = {}

    def _entry_evicted(self, key: tuple, value: object) -> None:
        """LRU eviction callback: drop the stale pointer of one entry.

        Only when the pointer still targets the evicted key — a newer
        version's insert may have redirected it already.
        """
        logical = self._logical(key)
        with self._lock:
            if self._stale.get(logical) == key:
                del self._stale[logical]

    @staticmethod
    def _logical(key: tuple) -> tuple:
        """The full key minus the source version."""
        return (key[0], key[1], key[3], key[4])

    @property
    def stats(self) -> CacheStats:
        return self.entries.stats

    # ------------------------------------------------------------------
    @staticmethod
    def keys(source, version: Optional[int], canon: CanonicalQuery,
             binding_keys: Iterable[Optional[tuple]]) -> list[Optional[tuple]]:
        """The full cache key of each probe (``None``: uncacheable): the
        ``source``'s URI *and* identity token enter it (a layer's are its
        wrapped source's), a wrapper without one (a subclass skipping
        ``DataSource.__init__``) has none."""
        token = getattr(source, "cache_token", None)
        if token is None:
            return [None for _ in binding_keys]
        uri, query = source.uri, canon.key
        return [None if key is None else (uri, token, version, query, key)
                for key in binding_keys]

    def insert(self, key: tuple, canon: CanonicalQuery,
               rows: list) -> list[BindingBatch]:
        """Insert an answer (batches or dict rows) in the query's own
        names; returns the stored entry (canonical names)."""
        batches = canon.canonical_batches(as_batches(rows))
        self.insert_canonical(key, batches)
        return batches

    def insert_canonical(self, key: tuple, batches: list[BindingBatch]) -> None:
        """Insert batches already in canonical variable names (repair)."""
        self.entries.put(key, batches)
        with self._lock:
            self._stale[self._logical(key)] = key

    def prior_entry(self, key: tuple) -> Optional[tuple[tuple, list[BindingBatch]]]:
        """The latest surviving entry of this probe under an older version.

        Input is the full key of a probe that just *missed*; the stale
        index locates the newest entry ever inserted for the same
        logical probe.  Returns ``(prior_key, stored_batches)``, still
        in canonical names (they are the repair engine's
        merge base, not an answer), or ``None`` when the probe was never
        cached or its entry has aged out of the LRU.
        """
        logical = self._logical(key)
        with self._lock:
            prior_key = self._stale.get(logical)
        if prior_key is None or prior_key == key:
            return None
        stored = self.entries.get(prior_key, record_miss=False)
        if stored is None:
            return None
        return prior_key, stored

    def fetch_stale(self, source, query: SourceQuery,
                    bindings: Row) -> Optional[list[BindingBatch]]:
        """The latest rows ever cached for this probe, any version.

        Serving them is *degraded* reading: the source may have mutated
        since.  Callers must flag the result (``trace.degraded``) — this
        path exists so an outage yields flagged stale rows instead of a
        failed query.  Touches no hit/miss counters.
        """
        canon = canonical_query(query)
        probe = canon and self.keys(source, None, canon, [canon.key_of(bindings)])[0]
        if probe is None:
            return None
        with self._lock:
            key = self._stale.get(self._logical(probe))
        stored = None if key is None else self.entries.get(key, record_miss=False)
        return None if stored is None else canon.original_batches(stored)

    # ------------------------------------------------------------------
    def invalidate_source(self, source_uri: str) -> int:
        """Eagerly drop every entry of one source (versioning already
        prevents stale hits; this just frees the slots)."""
        return self.entries.invalidate_where(lambda key: key[0] == source_uri)

    def clear(self) -> None:
        self.entries.clear()
        with self._lock:
            self._stale.clear()

    def __len__(self) -> int:
        return len(self.entries)


class CachedSource:
    """A source with the result cache in front of it: a transparent layer.

    Its own methods are what the cache changes: :meth:`execute_batch`
    (and :meth:`execute`, its dict edge), the bind join's per-flush
    :meth:`peek`, and :meth:`pin`.  Every other name that
    :class:`~repro.core.sources.DataSource` declares (``uri``,
    ``version``, ``estimate``, ``digest``, ``repair_delta``, ``journal``,
    ...) reads through to the wrapped source's own answer.  The layer is
    deliberately not a ``DataSource``: a base default would then answer
    in the source's place.

    A hit *shares* the entry's row lists (immutable tuples, lists never
    mutated: no copy).  The source version is read once per call, not
    per binding.

    ``stats`` is an optional per-executor :class:`CacheStats` receiving
    this layer's hit/miss counts, so an execution's trace reports its
    own probes rather than a delta of the instance-wide counters (which
    other concurrent executions would pollute).
    """

    def __init__(self, inner: DataSource, cache: SubQueryResultCache,
                 stats: CacheStats | None = None,
                 stats_lock: threading.Lock | None = None,
                 repair=None):
        self.inner = inner
        self.cache = cache
        self.local_stats = stats
        # Optional delta-join repair engine (duck-typed —
        # :class:`repro.cache.repair.RepairEngine`): a miss whose probe
        # has an entry under an older source version is first offered
        # for repair; success re-stamps the entry and counts as a hit,
        # since no source call happened.
        self.repair = repair
        # The stats object is shared by every layer of one executor and
        # bumped from pooled dispatch threads; the (equally shared)
        # lock keeps the counters exact.
        self._stats_lock = stats_lock or threading.Lock()

    def pin(self) -> "CachedSource":
        """A layer over the pinned inner source (same cache, same stats)."""
        pinned = self.inner.pin()
        if pinned is self.inner:
            return self
        return CachedSource(pinned, self.cache, stats=self.local_stats,
                            stats_lock=self._stats_lock, repair=self.repair)

    def _probe(self, version: int, query: SourceQuery, canon: CanonicalQuery,
               keys: list[Optional[tuple]],
               binding: Callable[[int], Row]) -> list[Optional[list[BindingBatch]]]:
        """Each key's entry (canonical names) or ``None``, counted: one LRU
        pass, then ONE repair call for the stale keys, with ``binding(i)``
        (a repaired entry reads as a hit: no source call happened)."""
        stored = self.cache.entries.get_many(keys, record_miss=self.repair is None)
        missed = [i for i, key in enumerate(keys) if key is not None and stored[i] is None]
        if self.repair is not None and missed:
            repaired = self.repair.repair(self.inner, version, query, canon,
                                          [keys[i] for i in missed],
                                          lambda at: binding(missed[at]))
            for i, merged in zip(missed, repaired):
                stored[i] = merged
            missed = [i for i in missed if stored[i] is None]
            if missed:
                self.cache.entries.miss(len(missed))
        if self.local_stats is not None:
            probed = len(keys) - keys.count(None)
            with self._stats_lock:
                self.local_stats.hits += probed - len(missed)
                self.local_stats.misses += len(missed)
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
            keys = self.cache.keys(self.inner, version, canon, map(canon.key_of, batch))
            results = [None if entry is None else canon.original_batches(entry)
                       for entry in self._probe(version, query, canon, keys,
                                                batch.__getitem__)]
        misses = [i for i, batches in enumerate(results) if batches is None]
        if not misses:
            return results
        for i, batches in zip(misses, self._fetch(query, [batch[i] for i in misses])):
            results[i] = batches
            if keys[i] is not None:
                self.cache.insert(keys[i], canon, batches)
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
        keys = self.cache.keys(self.inner, version, canon, [
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
for _name in {*DataSource.__annotations__, *vars(DataSource)} - {*vars(CachedSource)}:
    if not _name.startswith("__"):
        setattr(CachedSource, _name, property(attrgetter(f"inner.{_name}")))
