"""The mixed instance ``I = (G, D)`` and its query entry points.

A :class:`MixedInstance` holds the custom (application-dependent) RDF
graph ``G`` — the "glue" bridging the sources — and a registry of
heterogeneous data sources ``D`` keyed by URI.  It is the main public
object of the library: register sources, then evaluate CMQs, keyword
queries, or build digests from it.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence, Union

from repro.cache.mediator import MediatorCache
from repro.core.cmq import (
    AtomTemplateRegistry,
    CMQBuilder,
    ConjunctiveMixedQuery,
    GLUE_SOURCE,
)
from repro.core.executor import MixedQueryExecutor
from repro.core.planner import PlannerOptions, QueryPlan, QueryPlanner
from repro.core.results import MixedResult
from repro.core.sources import DataSource, SourceQuery
from repro.fulltext.source import FullTextSource
from repro.json.source import JSONSource
from repro.rdf.source import RDFSource
from repro.relational.source import RelationalSource
from repro.errors import UnknownSourceError
from repro.fulltext.store import FullTextStore
from repro.json.store import JSONDocumentStore
from repro.obs.spans import trace
from repro.rdf.graph import Graph
from repro.rdf.schema import RDFSchema
from repro.relational.database import Database
from repro.stats.catalog import StatisticsCatalog


class MixedInstance:
    """A mixed data instance: custom RDF graph + heterogeneous sources."""

    def __init__(self, graph: Graph | None = None, name: str = "instance",
                 schema: RDFSchema | None = None, entailment: bool = True,
                 cache: Union[MediatorCache, bool] = True):
        self.name = name
        self.graph = graph if graph is not None else Graph(name=f"{name}-glue")
        self.schema = schema
        self._sources: dict[str, DataSource] = {}
        self._templates = AtomTemplateRegistry()
        self._glue_source = RDFSource(GLUE_SOURCE, self.graph, name="glue",
                                      description="custom application RDF graph",
                                      entailment=entailment)
        # Cross-query caches (sub-query results + plans), shared by every
        # executor built from this instance.  ``cache=False`` disables
        # them; a MediatorCache may be passed to share or size them.
        if isinstance(cache, MediatorCache):
            self.cache: Optional[MediatorCache] = cache
        else:
            self.cache = MediatorCache() if cache else None
        # Digest-backed statistics (estimates + run-time feedback),
        # shared by every planner and executor of this instance.
        self._statistics: Optional[StatisticsCatalog] = None
        self._statistics_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Source registry
    # ------------------------------------------------------------------
    def register(self, source: DataSource) -> DataSource:
        """Register a wrapped data source under its URI."""
        self._sources[source.uri] = source
        return source

    def register_rdf(self, uri: str, graph: Graph, description: str = "",
                     entailment: bool = False) -> RDFSource:
        """Register an RDF data source (DBPedia-like, IGN-like, ...)."""
        return self.register(RDFSource(uri, graph, description=description,
                                       entailment=entailment))

    def register_relational(self, uri: str, database: Database,
                            description: str = "") -> RelationalSource:
        """Register a relational data source (INSEE-like, elections, ...)."""
        return self.register(RelationalSource(uri, database, description=description))

    def register_fulltext(self, uri: str, store: FullTextStore,
                          description: str = "") -> FullTextSource:
        """Register a Solr-like full-text source (tweets, Facebook posts)."""
        return self.register(FullTextSource(uri, store, description=description))

    def register_json(self, uri: str, store: JSONDocumentStore,
                      description: str = "") -> JSONSource:
        """Register a JSON document source queried with tree patterns."""
        return self.register(JSONSource(uri, store, description=description))

    def register_remote(self, transport, uri: str | None = None,
                        description: str = "", options=None, **kwargs):
        """Register a source served over the network (or a fault harness).

        ``transport`` is a :class:`repro.remote.Transport` already
        pointed at a :class:`repro.remote.SourceServer` (use
        ``TCPTransport(host, port)`` for a real server,
        ``LocalTransport(handler)`` for in-process loopback, or wrap
        either in a ``FaultyTransport`` for chaos testing).  The wrapper
        announces the served source's model/uri via the protocol
        handshake when not given explicitly.
        """
        from repro.remote import RemoteSource

        return self.register(RemoteSource(transport, uri=uri,
                                          description=description,
                                          options=options, **kwargs))

    def source(self, uri: str) -> DataSource:
        """Return the source registered under ``uri`` (the glue graph included)."""
        if uri == GLUE_SOURCE:
            return self._glue_source
        source = self._sources.get(uri)
        if source is None:
            raise UnknownSourceError(f"no source registered under URI {uri!r}")
        return source

    def sources(self) -> list[DataSource]:
        """Every registered external source, in URI order."""
        return [self._sources[uri] for uri in sorted(self._sources)]

    def source_uris(self) -> list[str]:
        """URIs of the registered external sources."""
        return sorted(self._sources)

    def registered_sources(self) -> dict[str, DataSource]:
        """The external sources by URI, in registration order — the order
        the candidates of a free source variable are dispatched in."""
        return dict(self._sources)

    def has_source(self, uri: str) -> bool:
        """True when a source is registered under ``uri``."""
        return uri in self._sources or uri == GLUE_SOURCE

    def accepting_sources(self, query: SourceQuery) -> list[DataSource]:
        """Sources able to evaluate ``query`` (used for free source variables)."""
        return [s for s in self.sources() if s.accepts(query)]

    @property
    def glue_source(self) -> RDFSource:
        """The wrapper over the instance's custom RDF graph."""
        return self._glue_source

    @property
    def templates(self) -> AtomTemplateRegistry:
        """The atom-template registry backing the textual CMQ syntax."""
        return self._templates

    # ------------------------------------------------------------------
    # Glue graph helpers
    # ------------------------------------------------------------------
    def add_glue_triples(self, triples: Iterable) -> int:
        """Add triples to the custom graph.

        The glue saturation G∞ is maintained *incrementally*: only the
        consequences of the new triples are derived, the unchanged part
        of the closure is untouched.  The graph's version bump makes the
        result cache drop exactly the glue entries.
        """
        return self._glue_source.add_triples(triples)

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------
    def executor(self, options: PlannerOptions | None = None) -> MixedQueryExecutor:
        """Build an executor over the *live* source catalog.

        For callers that hold an executor across queries: it reads the
        stores as they are at each call, with no snapshot isolation (and,
        for a remote source, a ``version`` round trip per read of its
        version).  :meth:`execute` evaluates pinned instead.
        """
        return MixedQueryExecutor(self._sources, self._glue_source,
                                  options=options, cache=self.cache,
                                  statistics=self.statistics())

    def planner(self, options: PlannerOptions | None = None) -> QueryPlanner:
        """Build a planner over the current source catalog."""
        return QueryPlanner(self._sources, self._glue_source, options,
                            plan_cache=self.cache.plans if self.cache else None,
                            statistics=self.statistics())

    def plan(self, query: ConjunctiveMixedQuery,
             options: PlannerOptions | None = None) -> QueryPlan:
        """Plan ``query`` without executing it."""
        return self.planner(options).plan(query)

    def execute(self, query: ConjunctiveMixedQuery | str,
                options: PlannerOptions | None = None, distinct: bool = True,
                limit: int | None = None) -> MixedResult:
        """Evaluate a CMQ (object or textual syntax) and return its result.

        The CMQ runs against :meth:`pin`, exactly as a served one does:
        it observes one version of every source for its whole plan.
        """
        return self.pin().execute(self, query, options=options,
                                  distinct=distinct, limit=limit)

    def explain_analyze(self, query: ConjunctiveMixedQuery | str,
                        options: PlannerOptions | None = None,
                        distinct: bool = True, limit: int | None = None):
        """Evaluate a CMQ and return its EXPLAIN ANALYZE report.

        The report (:class:`repro.obs.explain.ExplainReport`) merges the
        planner's per-step costs and cardinality estimates with the
        observed calls, rows and span timings; ``print(report)`` renders
        the plan-vs-reality table.  The execution runs under a trace of
        its own, which fills the report's phase timings.
        """
        from repro.obs.explain import explain_analyze

        with trace("explain_analyze"):
            result = self.execute(query, options=options, distinct=distinct,
                                  limit=limit)
        report = explain_analyze(result)
        if not isinstance(query, str):
            report.query = query.name
        return report

    def parse(self, text: str) -> ConjunctiveMixedQuery:
        """Parse the textual CMQ syntax against the registered templates
        (one frozen CMQ per text: :meth:`AtomTemplateRegistry.parse`)."""
        return self._templates.parse(text)

    def builder(self, name: str, head: Sequence[str] = ()) -> CMQBuilder:
        """Start building a CMQ programmatically."""
        return CMQBuilder(name, head=head)

    # ------------------------------------------------------------------
    # Digests and keyword querying (lazy imports to avoid cycles)
    # ------------------------------------------------------------------
    def build_digests(self, bloom_bits_per_value: int = 16,
                      histogram_buckets: int = 16):
        """Build the digest of every source plus the glue graph.

        Returns a :class:`repro.digest.catalog.DigestCatalog`.
        """
        from repro.digest.builder import build_catalog

        return build_catalog(self, bloom_bits_per_value=bloom_bits_per_value,
                             histogram_buckets=histogram_buckets)

    def keyword_query(self, keywords: Sequence[str], max_queries: int = 3,
                      catalog=None, limit: int | None = None):
        """Answer a keyword query: generate candidate CMQs and evaluate the best.

        Returns a :class:`repro.digest.keyword.KeywordSearchOutcome`.
        """
        from repro.digest.keyword import KeywordQueryEngine

        engine = KeywordQueryEngine(self, catalog=catalog)
        return engine.search(keywords, max_queries=max_queries, limit=limit)

    def statistics(self) -> StatisticsCatalog:
        """The statistics layer: digest-backed estimates + feedback.

        Shared by every planner and executor built from this instance,
        so run-time cardinality feedback recorded by one execution
        improves (and, via the revision stamp, invalidates cached plans
        for) every later one.
        """
        if self._statistics is None:
            with self._statistics_lock:
                if self._statistics is None:
                    self._statistics = StatisticsCatalog()
        return self._statistics

    # ------------------------------------------------------------------
    # Snapshot pinning (concurrent serving)
    # ------------------------------------------------------------------
    def pin(self):
        """Pin every source (glue included) at its current version.

        Returns a :class:`repro.service.snapshots.PinnedCatalog`: a
        consistent ``(source, version)`` vector of read-only wrappers
        over store snapshots (a remote source pins its snapshot when the
        query first uses it).  Executors built from it (see
        :meth:`PinnedCatalog.executor`) observe exactly that state for
        their whole plan, no matter how the live stores keep mutating —
        this is what :meth:`execute` and the mediator service pin per
        query.
        """
        from repro.service.snapshots import pin_instance

        return pin_instance(self)

    def size_summary(self) -> dict[str, object]:
        """Coarse size statistics about the instance (per source)."""
        return {
            "glue_triples": len(self.graph),
            "sources": {uri: source.size() for uri, source in sorted(self._sources.items())},
        }

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop every cached sub-query result and plan, and every memoised
        parse."""
        self._templates.forget_parsed()
        if self.cache is not None:
            self.cache.clear()

    def cache_statistics(self) -> dict[str, dict[str, object]]:
        """Hit/miss counters of the result and plan caches."""
        return self.cache.statistics() if self.cache is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"MixedInstance(name={self.name!r}, glue_triples={len(self.graph)}, "
                f"sources={len(self._sources)})")
