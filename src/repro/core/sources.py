"""The mediator's source protocol: sub-queries, wrappers, pins, metrics.

A mixed instance ``I = (G, D)`` contains sources of different data models,
"each of which resides within a system providing some query capabilities
over its data" (paper §1).  Each model's wrapper lives beside its store
and adapts it to the protocol defined here (:mod:`repro.rdf.source`,
:mod:`repro.relational.source`, :mod:`repro.fulltext.source`,
:mod:`repro.json.source`):

* :meth:`DataSource.execute_batch` takes a :class:`SourceQuery` plus a
  batch of binding tuples and returns, per binding, its answer as
  :class:`~repro.engine.batch.BindingBatch` objects over the tuples the
  store holds — the one entry every caller uses, a materialize step's
  being the batch of one empty binding (``execute``: one, as dicts);
* :meth:`DataSource.estimate` returns a cardinality estimate, the cost
  model's input when the statistics catalog derives none.

What the cache, statistics and digest layers ask of a model is asked
here too, and answered in its package: a query's renaming-invariant cache
form (:meth:`SourceQuery.derive_canonical`), a wrapper's digest
(:meth:`DataSource.derive_digest`, kept by :meth:`DataSource.digest`
once per wrapper lineage and carried over inserts by
:meth:`DataSource.absorb_digest`), its digest-backed estimate
(:meth:`DataSource.derive_estimate`), the sub-query a keyword search
asks of it (:meth:`DataSource.keyword_atom`) and how a delta chain
changes its cached answers (:meth:`DataSource.repair_delta`).
"""

from __future__ import annotations

import copy
import functools
import importlib
import itertools
import threading
import time
from typing import Optional, Sequence

from repro.digest.graph import SourceDigest
from repro.digest.valueset import ValueSetSummary
from repro.engine.batch import BindingBatch, Row, as_batches, dict_rows, row_count
from repro.errors import KeywordSearchError, MixedQueryError
from repro.obs.metrics import get_registry


def __getattr__(name: str):
    """The four wrappers, served lazily (PEP 562) to code importing them
    from here, as ``benchmarks/e2e/spans.py`` does.  Each lives beside its
    store; importing them at the top would cycle, since each of their
    modules imports this one."""
    home = {"RDFSource": "rdf", "RelationalSource": "relational",
            "FullTextSource": "fulltext", "JSONSource": "json"}.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.{home}.source"), name)


class SourceQuery:
    """Base class for the per-model sub-queries embedded in a CMQ."""

    #: The data model able to evaluate this sub-query (a wrapper's ``model``).
    model = ""

    #: True when no answer of this query type holds a row twice (a BGP's):
    #: cache repair then adds only the rows an entry lacks.
    distinct = False

    def output_variables(self) -> set[str]:
        """Variables this sub-query can bind."""
        raise NotImplementedError

    def required_parameters(self) -> set[str]:
        """Variables that must already be bound before execution."""
        return set()

    @functools.cached_property
    def canonical(self):
        """The renaming-invariant cache form
        (:func:`repro.cache.keys.canonical_query`), derived once per object."""
        return self.derive_canonical()

    def derive_canonical(self):
        """Derive the :class:`~repro.cache.keys.CanonicalQuery` (use
        :attr:`canonical`); ``None``: the query type is never cached."""
        return None


#: Process-wide allocator of per-wrapper cache identities (never reused,
#: unlike ``id()``), so two wrappers registered under the same URI — e.g.
#: the glue graphs of two instances sharing one MediatorCache — can
#: never serve each other's cached rows.
_CACHE_TOKENS = itertools.count()


def _instrumented(method):
    """Record per-source metrics around a wrapper's ``execute_batch``: the
    one entry the mediator calls, once per source call.  A query of
    another model is refused here, before the wrapper (or the wire) sees
    it, and counts as an error."""

    @functools.wraps(method)
    def call(self, query, bindings_batch):
        started = time.perf_counter()
        try:
            if not self.accepts(query):
                raise MixedQueryError(f"{self.model} source {self.uri} cannot "
                                      f"evaluate {type(query).__name__}")
            result = method(self, query, bindings_batch)
        except Exception:
            self._record_error()
            raise
        self._record_call(sum(map(row_count, result)),
                          time.perf_counter() - started, len(bindings_batch))
        return result

    return call


class _DigestLineage:
    """The one digest a live wrapper and its pins share, at one version."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.digest: Optional[SourceDigest] = None


class DataSource:
    """Base class of the mediator's source wrappers."""

    model = "abstract"

    #: The attribute holding the wrapped store (``"graph"``, ``"database"``,
    #: ``"store"``): its ``version``, ``journal``, ``len`` and ``snapshot()``
    #: are the wrapper's.  ``None``: no store — no version, no journal, and
    #: a pin serves live data.
    store_attribute: Optional[str] = None

    #: Version this wrapper is pinned at, or ``None`` for a live wrapper.
    #: Pinned wrappers are produced by :meth:`pin` over store snapshots;
    #: their underlying data never changes, so queries running against
    #: them observe one consistent state for their whole plan.
    pinned_at: Optional[int] = None

    #: Set per wrapper; ``cache_token`` is never reused, and pins share it.
    uri: str
    name: str
    description: str
    cache_token: int

    def __init__(self, source_uri: str, name: str | None = None,
                 description: str = ""):
        self.uri = source_uri
        self.name = name or source_uri.rsplit("/", 1)[-1]
        self.description = description
        self.cache_token = next(_CACHE_TOKENS)
        self._pin_lock = threading.Lock()
        self._pin_memo: Optional[tuple[int, "DataSource"]] = None
        self._instruments: Optional[tuple] = None
        self._digest_lineage = _DigestLineage()

    @property
    def cost_kind(self) -> str:
        """The cost-model kind pricing this wrapper's calls; ``"remote"``
        also makes the executor overlap its calls' waits."""
        return self.model

    # -- protocol -----------------------------------------------------------
    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        """``query``'s rows under ``bindings`` as dicts: the batch of one, the
        public edge.  A source defines this or :meth:`execute_batch`."""
        return dict_rows(self.execute_batch(query, [bindings or {}])[0])

    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[BindingBatch]]:
        """Answer a whole batch of bindings in one call: per binding, in
        order, its rows as schema-uniform batches (``[]`` for none).
        Wrappers push the batch down natively (IN-lists, disjunctions);
        this base is the per-binding loop of a source defining only
        :meth:`execute`."""
        return [as_batches(self.execute(query, bindings)) for bindings in bindings_batch]

    def estimate(self, query: SourceQuery, bound_variables: set[str] | None = None) -> float:
        """Estimated number of rows the sub-query would return."""
        raise NotImplementedError

    def derive_estimate(self, query: SourceQuery, bound: set[str],
                        values: Row) -> Optional[float]:
        """A digest-backed estimate of ``query``'s rows for the statistics
        catalog (:class:`~repro.stats.catalog.StatisticsCatalog`), or
        ``None`` to ask :meth:`estimate`: ``bound`` are the formals bound
        when the step runs, ``values`` those whose constant value is known
        at plan time.  A wrapper carrying its own statistics (a remote
        one) derives none."""
        return None

    def derive_digest(self, summarize=ValueSetSummary) -> Optional[SourceDigest]:
        """The digest of the data as it stands: its positions, their value
        sets (each ``summarize(values, keyword_aliases=...)``) and the
        edges between them, stamped with the version read first.  A
        wrapper whose data lives elsewhere (a remote one) derives none."""
        return None

    def absorb_digest(self, digest: SourceDigest, records: list) -> bool:
        """Fold the delta chain ``records`` into ``digest`` in place; False
        (nothing folded: derive it again) for a change it cannot fold."""
        return False

    def digest(self) -> Optional[SourceDigest]:
        """The digest of this wrapper's version, shared by the live wrapper
        and its pins (as they share ``cache_token``) and kept at one
        version, the newest asked for.  A newer version is reached by
        absorbing the journal's chain (:meth:`absorb_digest`) under the
        lineage's lock, so two readers missing one version fold it once;
        any other change derives the digest again.  An older version is
        derived and not kept."""
        version, lineage = self.version(), self._digest_lineage
        if version is None:
            return self.derive_digest()
        kept = lineage.digest
        if kept is not None and kept.version == version:
            return kept
        if kept is not None and kept.version < version:
            since = kept.version
            records = self.deltas_since(since, version)
            with lineage.lock:
                current = lineage.digest
                if current.version == version:  # another reader got there
                    return current
                if (current is kept and kept.version == since and records is not None
                        and self.absorb_digest(kept, records)):
                    kept.version = version
                    return kept
        fresh = self.derive_digest()
        if fresh is None:
            return None
        with lineage.lock:
            current = lineage.digest
            if current is not None and current.version == fresh.version:
                return current
            if current is None or current.version < fresh.version:
                lineage.digest = fresh
        return fresh

    def keyword_atom(self, nodes: list, variables: dict, hits: dict) -> tuple:
        """The sub-query a keyword search asks of this source along one
        join path: ``(atom name, sub-query, constants)``.  ``nodes`` are
        the path's positions in this source's digest, ``variables`` the
        CMQ variable of each path node, ``hits`` the keyword hit (its
        ``keyword`` and ``matched_values``) of each node that has one."""
        raise KeywordSearchError(f"cannot generate a sub-query for source model {self.model!r}")

    def repair_delta(self, query: SourceQuery, records: list, engine):
        """What the delta chain ``records`` does to cached answers of
        ``query``, for the cache repair ``engine``
        (:class:`~repro.cache.repair.RepairEngine`): the name of the
        soundness gate that refuses; ``None`` when the rows stand as they
        are; or ``(written, replaced)``, sources whose answers an entry
        gains and loses (``replaced`` may be ``None``), built once per
        version span through ``engine.spanned``.  Nothing is repaired by
        default."""
        return "shape"

    @property
    def _store(self):
        """The wrapped store (of a wrapper with a :attr:`store_attribute`)."""
        return getattr(self, self.store_attribute)

    def version(self) -> Optional[int]:
        """Monotonic version of the underlying data, or ``None``.

        Only the mediator's result cache keys entries on this value, so a
        wrapper **must** bump it on every mutation of its store (a plan
        outlives a write: :mod:`repro.cache.plans`).  ``None`` (a wrapper
        without a store) means "unknown": results of this source are never
        cached and no CMQ reaching it has its plan cached.
        """
        return None if self.store_attribute is None else self._store.version

    def journal(self):
        """The underlying store's :class:`~repro.core.deltas.DeltaJournal`.

        ``None`` (a wrapper without a store) means the wrapper emits no
        typed deltas: cache repair and standing-query notification degrade
        to plain invalidation / polling for this source.
        """
        return None if self.store_attribute is None else self._store.journal

    def deltas_since(self, version: int, upto: int | None = None):
        """The store's unbroken delta chain ``version -> upto`` (``upto``
        defaults to its current version).  A ``None`` return (no store, or
        a transition its log does not hold) tells the caller to fall back
        to invalidation."""
        return None if self.store_attribute is None else self._store.deltas_since(version, upto)

    def accepts(self, query: SourceQuery) -> bool:
        """True when this source can evaluate ``query``."""
        return query.model == self.model

    def pin(self) -> "DataSource":
        """A read-only view of this source pinned at its current version.

        The pinned wrapper answers every query from a store *snapshot*
        taken atomically (under the store's reader-writer lock) — a
        watermark over the live store, never a copy — so a plan never
        observes a half-applied update.  It shares this wrapper's
        ``cache_token``: content and version are identical at pin time,
        so cached rows are too.

        Pinning an unchanged source takes no snapshot and no lock: it is
        the memoised pin of the current version.  A wrapper without a
        store (no :attr:`store_attribute`) keeps serving live data and,
        like a wrapper without a version, simply forgoes the isolation
        guarantee.
        """
        if self.pinned_at is not None:
            return self
        memo = self._pin_memo
        if memo is not None and memo[0] == self.version():
            return memo[1]
        return self._pin_snapshot()

    def _pin_snapshot(self) -> "DataSource":
        """A read-only wrapper over a snapshot (a watermark) of the store,
        memoised per version (:meth:`_memoized_pin`)."""
        if self.store_attribute is None:
            return self
        frozen = self._store.snapshot()
        return self._memoized_pin(frozen.version, lambda: self._over_snapshot(frozen))

    def _over_snapshot(self, frozen) -> "DataSource":
        """This wrapper over ``frozen``, a snapshot of its store."""
        return self._pinned_copy(**{self.store_attribute: frozen})

    def _pinned_copy(self, **swapped) -> "DataSource":
        """This wrapper looking at other data: ``swapped`` attributes replaced.

        A pinned wrapper is the wrapper itself over a snapshot, so it is
        built as a copy, not through the base constructor: a subclass
        keeps its overrides and whatever its own constructor set.
        """
        clone = copy.copy(self)
        clone._pin_lock = threading.Lock()
        clone._pin_memo = None
        clone.__dict__.update(swapped)
        return clone

    def _memoized_pin(self, version: int, build) -> "DataSource":
        """Build-or-reuse the pinned wrapper for ``version``.

        Memoised per version so every query pinning an unchanged source
        shares one wrapper (and one lazily computed saturation, matcher,
        ... inside it).
        """
        with self._pin_lock:
            memo = self._pin_memo
            if memo is not None and memo[0] == version:
                return memo[1]
        pinned = build()
        pinned.cache_token = self.cache_token
        pinned.pinned_at = version
        with self._pin_lock:
            memo = self._pin_memo
            if memo is not None and memo[0] == version:
                return memo[1]
            self._pin_memo = (version, pinned)
        return pinned

    @staticmethod
    def _post_filters(query: SourceQuery, bindings: Row) -> list[tuple[str, object]]:
        """The bindings on output variables the sub-query did not consume."""
        outputs = query.output_variables()
        required = query.required_parameters()
        return [(k, v) for k, v in bindings.items()
                if k in outputs and k not in required]

    # -- metrics ------------------------------------------------------------
    def _source_instruments(self) -> tuple:
        """This wrapper's instrument handles in the current registry.

        Cached on the registry's *identity* so ``reset_registry()`` (test
        isolation) is picked up by long-lived wrappers on the next call.
        """
        registry = get_registry()
        cached = self._instruments
        if cached is not None and cached[0] is registry:
            return cached
        cached = (
            registry,
            registry.counter("source_calls_total", source=self.uri),
            registry.counter("source_rows_total", source=self.uri),
            registry.counter("source_bindings_total", source=self.uri),
            registry.histogram("source_call_seconds", source=self.uri),
            registry.counter("source_errors_total", source=self.uri),
        )
        self._instruments = cached
        return cached

    def _record_call(self, rows: int, seconds: float, bindings: int) -> None:
        _, calls, rows_total, bindings_total, latency, _ = self._source_instruments()
        calls.inc()
        bindings_total.inc(bindings)
        rows_total.inc(rows)
        latency.observe(seconds)

    def _record_error(self) -> None:
        self._source_instruments()[5].inc()

    def size(self) -> int:
        """Number of base items (triples, rows, documents) in the source."""
        if self.store_attribute is None:
            raise NotImplementedError
        with self._store.reading() as store:
            return len(store)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(uri={self.uri!r}, size={self.size()})"
