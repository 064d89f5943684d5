"""Data-source wrappers and per-model sub-query descriptions.

A mixed instance ``I = (G, D)`` contains sources of different data models,
"each of which resides within a system providing some query capabilities
over its data" (paper §1).  Each wrapper here adapts one substrate
(RDF graph, relational database, full-text store, JSON document store)
to the mediator's protocol:

* :meth:`DataSource.execute_batch` takes a :class:`SourceQuery` plus a
  batch of binding tuples and returns, per binding, its answer as
  :class:`~repro.engine.batch.BindingBatch` objects over the tuples the
  store holds — the one entry every caller uses, a materialize step's
  being the batch of one empty binding (``execute``: one, as dicts);
* :meth:`DataSource.estimate` returns a cardinality estimate used by the
  planner's "most selective sub-queries first" rule.
"""

from __future__ import annotations

import copy
import functools
import itertools
import re
import threading
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from repro.engine.batch import (
    BindingBatch, Row, as_answer, as_batches, dict_rows, row_count, tuple_decoder, tuple_getter)
from repro.errors import MixedQueryError
from repro.fulltext.document import row_builder
from repro.fulltext.query import MatchAllQuery, Parameter
from repro.fulltext.store import FullTextStore
from repro.fulltext.template import FullTextTemplate, fulltext_template
from repro.obs.metrics import get_registry
from repro.json.accel import structural_row_estimate as accel_structural_row_estimate
from repro.json.matcher import TreePatternMatcher
from repro.json.parser import parse_pattern
from repro.json.pattern import Parameter as JSONParameter, TreePattern
from repro.json.store import JSONDocumentStore
from repro.rdf.bgp import BGPQuery, solve
from repro.rdf.entailment import saturate, saturate_delta
from repro.rdf.graph import Graph
from repro.rdf.schema import RDFSchema
from repro.rdf.sparql import parse_bgp
from repro.rdf.terms import Literal, Term, URI, literal, uri
from repro.relational.database import Database
from repro.relational.template import SQLTemplate, sql_template

#: CURIE shape: letter-led prefix, exactly one colon — timestamps and
#: clock values ("2016-09-01T12:00:00") must not qualify.
_CURIE_RE = re.compile(r"[A-Za-z][\w.-]*:[^\s:]+")


# ---------------------------------------------------------------------------
# Sub-query descriptions
# ---------------------------------------------------------------------------

class SourceQuery:
    """Base class for the per-model sub-queries embedded in a CMQ."""

    def output_variables(self) -> set[str]:
        """Variables this sub-query can bind."""
        raise NotImplementedError

    def required_parameters(self) -> set[str]:
        """Variables that must already be bound before execution."""
        return set()

    def compatible_models(self) -> set[str]:
        """Data models able to evaluate this sub-query."""
        raise NotImplementedError

    @functools.cached_property
    def canonical(self):
        """The renaming-invariant cache form
        (:func:`repro.cache.keys.canonical_query`), derived once per object."""
        from repro.cache.keys import canonicalise

        return canonicalise(self)


@dataclass(frozen=True)
class RDFQuery(SourceQuery):
    """A BGP over an RDF source (or the glue graph).

    Variables of the BGP become mediator variables of the same name.
    """

    bgp: BGPQuery

    @classmethod
    def from_text(cls, sparql_text: str, name: str = "q") -> "RDFQuery":
        """Build from a SPARQL SELECT string (conjunctive subset)."""
        return cls(bgp=parse_bgp(sparql_text, name=name))

    def output_variables(self) -> set[str]:
        return {v.name for v in self.bgp.output_variables()}

    def compatible_models(self) -> set[str]:
        return {"rdf"}

    def __str__(self) -> str:  # pragma: no cover - trivial
        return str(self.bgp)


@dataclass(frozen=True)
class SQLQuery(SourceQuery):
    """A SQL SELECT over a relational source.

    ``sql`` is the statement as written: the form that travels over the
    remote wire and keys the caches.  What the mediator *knows* about it
    comes from :attr:`template`, the statement parsed once by the
    engine's own parser: its output column names (the executor's result
    labels) become mediator variables, and each ``{var}`` — a parameter
    node standing where a literal may, not text inside a quoted string —
    is a *required parameter*, bound by value at each call.  Bindings on
    plain output columns are applied as post-filters by the wrapper.
    Text the parser rejects raises :class:`~repro.errors.SQLParseError`
    the first time the query is analysed, i.e. at planning.
    """

    sql: str
    output_columns: tuple[str, ...] = ()

    @property
    def template(self) -> SQLTemplate:
        """The parsed statement (memoised per statement text)."""
        return sql_template(self.sql)

    def output_variables(self) -> set[str]:
        return set(self.output_columns or self.template.output_columns)

    def required_parameters(self) -> set[str]:
        return set(self.template.parameters)

    def compatible_models(self) -> set[str]:
        return {"relational"}

    def __str__(self) -> str:  # pragma: no cover - trivial
        return " ".join(self.sql.split())


@dataclass(frozen=True)
class FullTextQuery(SourceQuery):
    """A Solr-like query over a full-text source.

    ``query_template`` is the query as written: the form that travels
    over the remote wire and prints.  What the mediator *knows* about it
    comes from :attr:`template`, the text parsed once by the store's own
    parser: each ``{var}`` — a parameter node standing where a term may,
    not text inside a ``"phrase"`` or a ``[range]`` — is a *required
    parameter*, bound by value at each call.  ``output_fields`` maps
    mediator variables to dotted document paths; bindings on them narrow
    the search where the index can and are post-filtered by the wrapper.
    Text the parser rejects raises :class:`~repro.errors.ParseError` the
    first time the query is analysed, i.e. at planning.
    """

    query_template: str
    output_fields: tuple[tuple[str, str], ...]
    limit: Optional[int] = None
    sort_by: Optional[str] = None

    @classmethod
    def create(cls, query_template: str, output_fields: dict[str, str],
               limit: int | None = None, sort_by: str | None = None) -> "FullTextQuery":
        """Convenience constructor accepting a dict of output fields."""
        return cls(query_template=query_template,
                   output_fields=tuple(sorted(output_fields.items())),
                   limit=limit, sort_by=sort_by)

    @property
    def template(self) -> FullTextTemplate:
        """The parsed query (memoised per query text)."""
        return fulltext_template(self.query_template)

    def fields(self) -> dict[str, str]:
        """Output fields as a dict (variable -> document path)."""
        return dict(self.output_fields)

    def output_variables(self) -> set[str]:
        return {variable for variable, _ in self.output_fields}

    def required_parameters(self) -> set[str]:
        return set(self.template.parameters)

    def compatible_models(self) -> set[str]:
        return {"fulltext"}

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.query_template


@dataclass(frozen=True)
class JSONQuery(SourceQuery):
    """A tree pattern over a JSON document source.

    The pattern's ``?variables`` become mediator variables of the same
    name; its ``{parameters}`` are required parameters, filled with the
    current binding before evaluation (like ``{var}`` placeholders in SQL
    and full-text sub-queries).  Bindings on plain output variables are
    *pushed down* to the source's path indexes instead of being
    post-filtered.
    """

    pattern: TreePattern
    limit: Optional[int] = None

    @classmethod
    def from_text(cls, pattern_text: str, limit: int | None = None) -> "JSONQuery":
        """Build from the textual tree-pattern syntax."""
        return cls(pattern=parse_pattern(pattern_text), limit=limit)

    def output_variables(self) -> set[str]:
        return self.pattern.variables()

    def required_parameters(self) -> set[str]:
        return self.pattern.parameters()

    def compatible_models(self) -> set[str]:
        return {"json"}

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.pattern.to_text()


# ---------------------------------------------------------------------------
# Source wrappers
# ---------------------------------------------------------------------------

#: Process-wide allocator of per-wrapper cache identities (never reused,
#: unlike ``id()``), so two wrappers registered under the same URI — e.g.
#: the glue graphs of two instances sharing one MediatorCache — can
#: never serve each other's cached rows.
_CACHE_TOKENS = itertools.count()


def _instrumented(method):
    """Record per-source metrics around a wrapper's ``execute_batch``: the
    one entry the mediator calls, once per source call."""

    @functools.wraps(method)
    def call(self, query, bindings_batch):
        started = time.perf_counter()
        try:
            result = method(self, query, bindings_batch)
        except Exception:
            self._record_error()
            raise
        self._record_call(sum(map(row_count, result)),
                          time.perf_counter() - started, len(bindings_batch))
        return result

    return call


class DataSource:
    """Base class of the mediator's source wrappers."""

    model = "abstract"

    #: When True, the statistics layer uses this wrapper's ``estimate()``
    #: verbatim instead of deriving digest-backed numbers — the escape
    #: hatch for wrappers that carry their own (remote) statistics.
    trust_wrapper_estimate = False

    #: Version this wrapper is pinned at, or ``None`` for a live wrapper.
    #: Pinned wrappers are produced by :meth:`pin` over store snapshots;
    #: their underlying data never changes, so queries running against
    #: them observe one consistent state for their whole plan.
    pinned_at: Optional[int] = None

    def __init__(self, source_uri: str, name: str | None = None,
                 description: str = ""):
        self.uri = source_uri
        self.name = name or source_uri.rsplit("/", 1)[-1]
        self.description = description
        self.cache_token = next(_CACHE_TOKENS)
        self._pin_lock = threading.Lock()
        self._pin_memo: Optional[tuple[int, "DataSource"]] = None
        self._instruments: Optional[tuple] = None

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

    def version(self) -> Optional[int]:
        """Monotonic version of the underlying data, or ``None``.

        Only the mediator's result cache keys entries on this value, so a
        wrapper **must** bump it on every mutation of its store (a plan
        outlives a write: :mod:`repro.cache.plans`).  ``None`` (the base
        default) means "unknown": results of this source are never cached
        and no CMQ reaching it has its plan cached.
        """
        return None

    def journal(self):
        """The underlying store's :class:`~repro.core.deltas.DeltaJournal`.

        ``None`` (the base default) means the wrapper emits no typed
        deltas: cache repair and standing-query notification degrade to
        plain invalidation / polling for this source.
        """
        return None

    def deltas_since(self, version: int, upto: int | None = None):
        """The unbroken delta chain ``version -> upto`` (None on a gap).

        ``upto`` defaults to the wrapper's current version.  A ``None``
        return (no journal, unknown version, or a transition the journal
        did not see) tells the caller to fall back to invalidation.
        """
        journal = self.journal()
        if journal is None:
            return None
        target = self.version() if upto is None else upto
        if target is None:
            return None
        return journal.since(version, target)

    def accepts(self, query: SourceQuery) -> bool:
        """True when this source can evaluate ``query``."""
        return self.model in query.compatible_models()

    def pin(self) -> "DataSource":
        """A read-only view of this source pinned at its current version.

        The pinned wrapper answers every query from a store *snapshot*
        taken atomically (under the store's reader-writer lock) — a
        watermark over the live store, never a copy — so a plan never
        observes a half-applied update.  It shares this wrapper's
        ``cache_token``: content and version are identical at pin time,
        so cached rows are too.

        Pinning an unchanged source takes no snapshot and no lock: it is
        the memoised pin of the current version.  A wrapper without
        snapshot support (no :meth:`_pin_snapshot`) keeps serving live
        data and, like a wrapper without a version, simply forgoes the
        isolation guarantee.
        """
        if self.pinned_at is not None:
            return self
        memo = self._pin_memo
        if memo is not None and memo[0] == self.version():
            return memo[1]
        return self._pin_snapshot()

    def _pin_snapshot(self) -> "DataSource":
        """Snapshot the store and wrap it (see :meth:`_memoized_pin`)."""
        return self

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
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(uri={self.uri!r}, size={self.size()})"


class _Closure:
    """The one G∞ lineage of an RDF source, shared by the live wrapper and
    its pins: ``graph`` saturates the source graph at ``state`` (its
    ``(additions, removals)``).  Additions extend it in place by
    :func:`~repro.rdf.entailment.saturate_delta` over the journalled delta
    (the set difference only on a journal gap); a removal saturates anew.
    ``versions`` maps each raw version the lineage stood at to G∞'s, so
    what a raw span added to G∞ — ΔG∞ — is G∞'s own journal between the
    two (:meth:`delta`).
    """

    __slots__ = ("lock", "graph", "schema", "state", "versions")

    def __init__(self):
        self.lock, self.graph, self.schema, self.state = threading.Lock(), None, None, (-1, -1)
        self.versions: dict[int, int] = {}

    def at(self, source: Graph, snapshot: bool = False) -> Graph | None:
        """G∞ (a snapshot of it, when ``snapshot``) of ``source``, the graph
        or a snapshot of it — None when the lineage is already past it."""
        with self.lock, source.rwlock.read_locked():
            state = (source.additions, source.removals)
            if self.graph is not None and state != self.state:
                if sum(state) < sum(self.state):
                    return None
                if state[1] == self.state[1]:
                    records = source.deltas_since(sum(self.state), sum(state))
                    delta = ([t for t in source if t not in self.graph] if records is None
                             else [t for record in records for t in record.items])
                    saturate_delta(self.graph, delta, schema=self.schema)
                    self.state = state
                else:
                    self.graph = None
            if self.graph is None:
                self.graph, _ = saturate(source)
                self.schema = RDFSchema.from_graph(self.graph)
                self.state, self.versions = state, {}
            self.versions[sum(state)] = self.graph.version
            if len(self.versions) > self.graph.journal.capacity:
                del self.versions[next(iter(self.versions))]
            return self.graph.snapshot() if snapshot else self.graph

    def delta(self, pre: int, post: int) -> list | None:
        """ΔG∞ of the raw span ``pre -> post``: the triples G∞ gained (None
        when the lineage did not stand at both, or its journal lost them)."""
        with self.lock:
            versions = self.versions
            records = (self.graph.deltas_since(versions[pre], versions[post])
                       if pre in versions and post in versions else None)
        return None if records is None else [t for record in records for t in record.items]


class RDFSource(DataSource):
    """Wrapper around an RDF graph source (DBPedia-like, IGN-like, glue)."""

    model = "rdf"

    def __init__(self, source_uri: str, graph: Graph, name: str | None = None,
                 description: str = "", entailment: bool = False):
        super().__init__(source_uri, name or graph.name, description)
        self.graph = graph
        self.entailment = entailment
        #: The G∞ lineage shared with the pins (read with entailment only).
        self.closure = _Closure()
        #: A pin's own G∞ once read (None on a live wrapper).
        self._saturated: Graph | None = None

    def version(self) -> int:
        return self.graph.version

    def journal(self):
        return self.graph.journal

    def effective_graph(self) -> Graph:
        """The graph queries and estimates run against: the raw graph, or
        G∞ when entailment is on — the lineage's (:meth:`_Closure.at`), a
        pin's through a snapshot of it, or its own when the lineage has
        already moved past the pin."""
        if not self.entailment:
            return self.graph
        if self.pinned_at is None:
            return self.closure.at(self.graph)
        saturated = self._saturated
        if saturated is None:
            saturated = self.closure.at(self.graph, snapshot=True)
            if saturated is None:
                saturated, _ = saturate(self.graph)
            self._saturated = saturated
        return saturated

    def add_triples(self, triples: Iterable) -> int:
        """Add triples to the source graph as one batch — one version
        bump and one journal record, the delta G∞ absorbs at its next
        read — and return how many were new."""
        return len(self.graph.add_batch(triples))

    def _pin_snapshot(self) -> "RDFSource":
        """A read-only wrapper over a snapshot of the graph and — with
        entailment — a snapshot of the shared G∞ lineage, brought up to the
        pinned version from the journal (lazily, when nothing is saturated
        yet).  Both are watermarks, not copies.  Memoised per version.
        """
        frozen = self.graph.snapshot()

        def build() -> "RDFSource":
            pinned = self._pinned_copy(graph=frozen, _saturated=None)
            if self.entailment and self.closure.graph is not None:
                pinned._saturated = self.closure.at(frozen, snapshot=True)
            return pinned

        return self._memoized_pin(frozen.version, build)

    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        return dict_rows(self.execute_batch(query, [bindings or {}])[0])

    @_instrumented
    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[BindingBatch]]:
        """Batched BGP evaluation: the whole flush seeds one join
        (:meth:`seeded_ids`), and each output id is decoded once, through
        the graph's term dictionary, by one compiled tuple decoder."""
        if not isinstance(query, RDFQuery):
            raise MixedQueryError(f"RDF source {self.uri} cannot evaluate {type(query).__name__}")
        columns = tuple(v.name for v in query.bgp.output_variables())
        decode = tuple_decoder(len(columns))
        with self.effective_graph().reading() as graph:
            return [as_answer(columns, decode(rows, graph.dictionary)) for rows in self.seeded_ids(
                graph, query.bgp, [bindings or {} for bindings in bindings_batch])]

    @staticmethod
    def seeded_ids(graph: Graph, bgp: BGPQuery, batch: Sequence[Row],
                   delta: Iterable | None = None) -> list[list[tuple]]:
        """Per binding of ``batch``, the distinct id tuples of ``bgp``'s
        output variables on ``graph`` (read inside its ``reading()``) —
        with ``delta``, of the solutions using one of its triples.  The
        batch's bound values are the join's first relation (a semi-join):
        one row per binding and spelling, each value as the ids of the
        terms it may match under the sources' loose ``==``
        (:func:`_binding_term_variants`: 5 and 5.0, a CURIE and its URI).
        """
        variables = {v.name: v for v in bgp.variables()}
        output, ids = bgp.output_variables(), graph.dictionary.ids
        groups: dict[tuple, list[int]] = {}
        for index, bindings in enumerate(batch):
            groups.setdefault(tuple(n for n in bindings if n in variables), []).append(index)
        results: list[list[tuple]] = [[] for _ in batch]
        for bound, indices in groups.items():
            if not bound:
                rows = solve(bgp.patterns, graph, (), [()], output, delta)
                for index in indices:
                    results[index] = rows
                continue
            seeds = [(index,) for index in indices]
            for name in bound:
                seeds = [seed + (term_id,) for seed in seeds
                         for term in _binding_term_variants(batch[seed[0]][name])
                         if (term_id := ids.get(term)) is not None]
            for row in solve(bgp.patterns, graph, (_BINDING, *map(variables.get, bound)),
                             seeds, (_BINDING, *output), delta):
                results[row[0]].append(row[1:])
        return results

    def estimate(self, query: SourceQuery, bound_variables: set[str] | None = None) -> float:
        if not isinstance(query, RDFQuery):
            return float("inf")
        bound_variables = bound_variables or set()
        with self.effective_graph().reading() as graph:
            estimate = float(len(graph))
            for p in query.bgp.patterns:
                estimate = min(estimate, float(graph.count(p)) or 1.0)
        for variable in query.output_variables() & bound_variables:
            estimate = max(1.0, estimate / 10.0)
        return estimate

    def size(self) -> int:
        return len(self.graph)


class RelationalSource(DataSource):
    """Wrapper around a relational database source (INSEE-like)."""

    model = "relational"

    def __init__(self, source_uri: str, database: Database, name: str | None = None,
                 description: str = ""):
        super().__init__(source_uri, name or database.name, description)
        self.database = database

    def version(self) -> int:
        return self.database.version

    def journal(self):
        return self.database.journal

    def _pin_snapshot(self) -> "RelationalSource":
        """A read-only wrapper over a consistent snapshot of the database."""
        frozen = self.database.snapshot()
        return self._memoized_pin(
            frozen.version, lambda: self._pinned_copy(database=frozen))

    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        return dict_rows(self.execute_batch(query, [bindings or {}])[0])

    @_instrumented
    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[BindingBatch]]:
        """Batched SQL evaluation with native IN-list pushdown.

        Both strategies bind the parsed template by value: a binding is
        a literal *node* of the statement, never text to be re-lexed.

        * Every ``{var}`` occurs once, as a *top-level conjunct*
          ``col = {var}`` of the WHERE clause (necessary for a row,
          whatever sits beside it), with ``col`` echoed in the SELECT
          list and no LIMIT / GROUP BY / HAVING / aggregate — each
          equality becomes ``col IN (v1, ..., vk)``, the statement runs
          once, rows go to bindings through the echoed column.
        * Otherwise (an equality under ``OR`` / ``NOT`` or in a
          ``JOIN ... ON``, a range parameter) — one statement per
          distinct parameter tuple, values told apart by type as in the
          cache keys; a statement without parameters, or a lone binding,
          has one tuple, so it runs once.  Still a single mediator call.

        Either way each binding's rows are then cut out by the usual
        post-filters on output columns.
        """
        if not isinstance(query, SQLQuery):
            raise MixedQueryError(
                f"relational source {self.uri} cannot evaluate {type(query).__name__}"
            )
        batch = [dict(b or {}) for b in bindings_batch]
        template = query.template
        required = sorted(template.parameters)
        echoes = template.batch_echoes
        if len(batch) > 1 and echoes and all(var in b and b[var] is not None and _scalar(b[var])
                          for b in batch for var in required):
            answer = self._run(template.bind({}, in_lists={
                var: dict.fromkeys(b[var] for b in batch) for var in required}))
            specs = []
            for b in batch:
                spec = self._post_filters(query, b)
                spec.extend((echoes[var], b[var]) for var in required)
                specs.append(spec)
            return _partition_exact(answer, specs)

        # One execution per distinct (type-tagged) parameter tuple.
        groups: dict[tuple, list[int]] = {}
        for index, b in enumerate(batch):
            # A binding that lacks a parameter keys apart (shorter tuple)
            # and fails in ``bind``.
            values = [b[var] for var in required if var in b]
            key = tuple((type(v).__name__, v if _scalar(v) else repr(v))
                        for v in values)
            groups.setdefault(key, []).append(index)
        results: list[list[BindingBatch]] = [[] for _ in batch]
        for indices in groups.values():
            answer = self._run(template.bind(batch[indices[0]]))
            parts = _partition_exact(answer, [self._post_filters(query, batch[i])
                                              for i in indices])
            for index, part in zip(indices, parts):
                results[index] = part
        return results

    def _run(self, statement) -> BindingBatch:
        """The result as one batch; a repeated output name keeps its last value."""
        result = self.database.execute_select(statement)
        at = {column: i for i, column in enumerate(result.columns)}
        if len(at) == len(result.columns):
            return BindingBatch(result.columns, result.rows)
        return BindingBatch(at, list(map(tuple_getter(list(at.values())), result.rows)))

    def estimate(self, query: SourceQuery, bound_variables: set[str] | None = None) -> float:
        if not isinstance(query, SQLQuery):
            return float("inf")
        bound_variables = bound_variables or set()
        template = query.template
        estimate = 1.0
        for table_name in template.tables:
            if self.database.has_table(table_name):
                estimate *= max(1, len(self.database.table(table_name)))
        if template.statement.where is not None:
            estimate = max(1.0, estimate / 10.0)
        for _ in query.output_variables() & bound_variables:
            estimate = max(1.0, estimate / 10.0)
        for _ in template.parameters:
            estimate = max(1.0, estimate / 10.0)
        return estimate

    def size(self) -> int:
        return sum(len(t) for t in self.database.tables())


class FullTextSource(DataSource):
    """Wrapper around a Solr-like full-text store (tweets, Facebook posts)."""

    model = "fulltext"

    def __init__(self, source_uri: str, store: FullTextStore, name: str | None = None,
                 description: str = ""):
        super().__init__(source_uri, name or store.name, description)
        self.store = store

    def version(self) -> int:
        return self.store.version

    def journal(self):
        return self.store.journal

    def _pin_snapshot(self) -> "FullTextSource":
        """A read-only wrapper over a snapshot (a watermark) of the store."""
        frozen = self.store.snapshot()
        return self._memoized_pin(
            frozen.version, lambda: self._pinned_copy(store=frozen))

    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        return dict_rows(self.execute_batch(query, [bindings or {}])[0])

    @_instrumented
    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[BindingBatch]]:
        """Batched full-text evaluation: one match set per group of bindings.

        Bindings that bind the template's parameters alike form a group,
        and a parameter whose only occurrence is a top-level ``path:{var}``
        clause over a ``keyword`` field is pooled — bound to the OR of the
        whole batch's values — so that, as for a parameter-free template,
        the batch is one group.  A group binds the template once and asks
        the store for its match set once; each binding then intersects
        that set with the keyword buckets of its pooled values and of its
        ``str`` bindings on ``keyword`` outputs (the store files a value
        as ``str(v).lower()``, exactly what ``_loose_equal`` accepts from
        a ``str``), and ranks only what is left, through the store's own
        :meth:`~repro.fulltext.store.FullTextStore.rank`.  Keyword terms
        carry no BM25 weight, so a hit scores as under its own binding
        alone.  Under a ``limit`` nothing narrows (top-k-then-filter is
        not filter-then-top-k): every binding filters the group's top-k.

        A hit is projected off its stored row (:func:`_row_projector`: a
        dict lookup and an ``itemgetter``) into a value tuple; the bindings
        left over — non-``str`` values, ``text`` / ``numeric`` / ``date`` /
        ``_score`` outputs — are checked with ``_loose_equal`` on its
        columns, and a binding's tuples are its batch.  The whole call is
        one read of the store.
        """
        if not isinstance(query, FullTextQuery):
            raise MixedQueryError(
                f"full-text source {self.uri} cannot evaluate {type(query).__name__}"
            )
        with self.store.reading() as store:
            template, limit = query.template, query.limit
            batch = [b or {} for b in bindings_batch]
            paths = {variable: path for variable, path in query.output_fields}

            def keyword(path: str) -> bool:
                config = store.field_config(path)
                return limit is None and config is not None and config.field_type == "keyword"

            pooled = {var: path for var, path in template.clause_parameters.items()
                      if keyword(path) and all(var in b for b in batch)}
            in_lists = {var: [b[var] for b in batch] for var in pooled}
            others = sorted(template.parameters - set(pooled))
            post = {variable: (path if keyword(path) else None, i) for i, (variable, path)
                    in enumerate(paths.items()) if variable not in template.parameters}
            groups: dict[tuple, list[int]] = {}
            for index, b in enumerate(batch):
                key = tuple([str(b[var]) if var in b else None for var in others])
                groups.setdefault(key, []).append(index)
            results: list[list[BindingBatch]] = [[] for _ in batch]
            project, header = _row_projector(store, paths.values()), tuple(paths)
            rank, bucket, sort_by = store.rank, store.keyword_documents, query.sort_by
            for indices in groups.values():
                bound = template.bind(batch[indices[0]], in_lists)
                matches, score = store.matches(bound), store.scorer(bound)
                top = None if limit is None else rank(matches, score, sort_by, limit=limit)
                for index in indices:
                    b = batch[index]
                    buckets = [bucket(path, str(b[var]).lower()) for var, path in pooled.items()]
                    checks = []
                    for variable, value in b.items():
                        if (spec := post.get(variable)) is None:
                            continue
                        if spec[0] is not None and isinstance(value, str):
                            buckets.append(bucket(spec[0], value.lower()))
                        else:
                            checks.append((spec[1], value))
                    if top is None:
                        found = matches
                        buckets.sort(key=len)  # each ``&`` costs the smaller operand
                        for ids in buckets:
                            found = ids & found
                        ranked = rank(found, score, sort_by)
                    else:
                        ranked = top
                    if not ranked:
                        continue
                    rows = project(ranked)
                    if checks:
                        rows = [values for values in rows if all(
                            _loose_equal(values[i], value) for i, value in checks)]
                    results[index] = as_answer(header, rows)
            return results

    def estimate(self, query: SourceQuery, bound_variables: set[str] | None = None) -> float:
        if not isinstance(query, FullTextQuery):
            return float("inf")
        bound_variables = bound_variables or set()
        base = float(len(self.store) if query.limit is None else query.limit)
        # One factor per distinct parameter and per constant clause naming
        # its field (a bare default-field term is not counted).
        restrictions = len(query.template.parameters) + sum(
            1 for clause in query.template.conjuncts
            if not isinstance(clause, (Parameter, MatchAllQuery))
            and getattr(clause, "field", "") is not None)
        for _ in range(restrictions):
            base = max(1.0, base / 20.0)
        for _ in query.output_variables() & bound_variables:
            base = max(1.0, base / 10.0)
        return base

    def size(self) -> int:
        return len(self.store)


class JSONSource(DataSource):
    """Wrapper around a JSON document store queried with tree patterns."""

    model = "json"

    def __init__(self, source_uri: str, store: JSONDocumentStore,
                 name: str | None = None, description: str = ""):
        super().__init__(source_uri, name or store.name, description)
        self.store = store
        self.matcher = TreePatternMatcher(store)

    @property
    def cost_kind(self) -> str:
        """The cost-model kind: structural range joins when accelerated."""
        return "json_accel" if getattr(self.matcher, "accel", False) else self.model

    def version(self) -> int:
        return self.store.version

    def journal(self):
        return self.store.journal

    def _pin_snapshot(self) -> "JSONSource":
        """A read-only wrapper over a snapshot (a watermark) of the store."""
        frozen = self.store.snapshot()
        return self._memoized_pin(
            frozen.version,
            lambda: self._pinned_copy(store=frozen,
                                      matcher=TreePatternMatcher(frozen)))

    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        return dict_rows(self.execute_batch(query, [bindings or {}])[0])

    @staticmethod
    def _split_bindings(query: JSONQuery, bindings: Row) -> tuple[Row, Row]:
        """Split bindings into pattern parameters and index pushdowns.

        Bindings on plain output variables become index-backed equality
        pushdowns (matching rows are aligned to the incoming value, so
        the mediator's exact-equality joins accept them).
        """
        parameters: Row = {}
        for name in query.required_parameters():
            if name not in bindings:
                raise MixedQueryError(
                    f"sub-query parameter {{{name}}} is not bound; required parameters "
                    "must be produced by an earlier sub-query or a constant"
                )
            parameters[name] = bindings[name]
        pushdown = {variable: value for variable, value in bindings.items()
                    if variable in query.output_variables()
                    and variable not in parameters}
        return parameters, pushdown

    @_instrumented
    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[BindingBatch]]:
        """Batched tree-pattern evaluation, in one read of the store.

        The candidate set of the pattern's constant predicates is
        computed once (:meth:`TreePatternMatcher.match_batch`); each
        binding only adds its own per-path index lookups on top.
        """
        if not isinstance(query, JSONQuery):
            raise MixedQueryError(
                f"JSON source {self.uri} cannot evaluate {type(query).__name__}"
            )
        calls = [self._split_bindings(query, bindings or {}) for bindings in bindings_batch]
        # A pin's snapshot yields the store at its version: match on that.
        with self.store.reading() as store:
            return [as_answer(query.pattern.columns, rows)
                    for rows in TreePatternMatcher(store, self.matcher.accel).match_batch(
                        query.pattern, calls, limit=query.limit)]

    def estimate(self, query: SourceQuery, bound_variables: set[str] | None = None,
                 values: dict[str, object] | None = None) -> float:
        """Path-index estimate of a tree pattern (the one JSON estimator).

        Every number is read off what a write already maintains — the
        per-path indexes and, for purely structural patterns, the
        accelerator encoding — so the first estimate after a write costs
        no pass over the documents.  ``values`` carries the bindings whose
        constant value is known at plan time (the statistics catalog
        passes the atom's constants): those are priced from the exact
        postings of the value instead of the path's average.
        """
        if not isinstance(query, JSONQuery):
            return float("inf")
        bound = bound_variables or set()
        values = values or {}
        pattern = query.pattern
        limit = float("inf") if query.limit is None else float(query.limit)
        with self.store.reading() as store:
            if (self.matcher.accel
                    and all(not leaf.predicates for leaf in pattern.leaves)
                    and not (pattern.variables() & bound)):
                # Purely structural pattern: the accelerator encoding answers
                # the per-axis cardinalities exactly (documents *and* fan-out).
                rows = accel_structural_row_estimate(store.encoding_view(), pattern)
                if rows is not None:
                    return min(rows, limit)
            estimate = float(len(store))
            for leaf in pattern.leaves:
                index = store.index_for(leaf.path)
                if index is None:
                    # Interior (non-leaf) path: only presence statistics exist.
                    present = len(store.doc_ids_with_path(leaf.path))
                    if present == 0:
                        # Never observed anywhere: nothing can match.
                        return 0.0
                    estimate = min(estimate, float(present))
                    continue
                # Structural selectivity (documents exhibiting the path),
                # refined by value-level index statistics below.
                leaf_estimate = float(index.document_count)
                for predicate in leaf.predicates:
                    known = predicate.value
                    if isinstance(known, JSONParameter):
                        if predicate.op != "=" or known.name not in values:
                            leaf_estimate = min(leaf_estimate, index.average_postings())
                            continue
                        known = values[known.name]
                    if predicate.op == "=":
                        leaf_estimate = min(leaf_estimate, float(len(index.lookup_eq(known))))
                    elif predicate.op != "!=":
                        leaf_estimate = min(leaf_estimate,
                                            float(len(index.lookup_cmp(predicate.op, known))))
                if leaf.variable is not None and leaf.variable in bound:
                    if leaf.variable in values:
                        leaf_estimate = min(leaf_estimate,
                                            float(len(index.lookup_eq(values[leaf.variable]))))
                    else:
                        leaf_estimate = min(leaf_estimate, index.average_postings())
                estimate = min(estimate, leaf_estimate)
            if any(leaf.constant_equality() is not None for leaf in pattern.leaves):
                # The per-path indexes can answer the conjunction of constant
                # predicates exactly (candidate-set intersection), which beats
                # the independent per-leaf minima above.
                estimate = min(estimate, float(len(
                    TreePatternMatcher(store, self.matcher.accel).candidates(pattern))))
            return min(estimate, limit)

    def size(self) -> int:
        return len(self.store)


# ---------------------------------------------------------------------------
# Value conversions
# ---------------------------------------------------------------------------

def _to_rdf_term(value: object) -> Term:
    if isinstance(value, (URI, Literal)):
        return value
    if isinstance(value, str) and value.startswith(("http://", "https://", "urn:")):
        return uri(value)
    return literal(value)


#: The column of a seeded relation holding each row's binding index.
_BINDING = object()


def _binding_term_variants(value: object) -> list[Term]:
    """RDF terms a mediator value may match under the sources' loose ``==``.

    The other wrappers compare ``5 == 5.0`` equal while RDF literals are
    typed — probe both spellings so a bind join through an RDF atom
    never misses a numeric match.  A CURIE-shaped string is probed both
    as the literal it converts to and as the URI it round-trips from
    (``URI.value`` of a non-HTTP identifier reads back as a plain
    string).
    """
    terms: list[Term] = []
    values: list[object] = [value]
    if isinstance(value, bool):
        pass
    elif isinstance(value, float) and value.is_integer():
        values.append(int(value))
    elif isinstance(value, int):
        values.append(float(value))
    for variant in values:
        terms.append(_to_rdf_term(variant))
    if (isinstance(value, str) and _CURIE_RE.fullmatch(value)
            and not value.startswith(("http://", "https://", "urn:"))):
        candidate = URI(value)
        if candidate not in terms:
            terms.append(candidate)
    return terms


def _row_projector(store: FullTextStore,
                   paths: Iterable[str]) -> Callable[[list[tuple[str, float]]], list[tuple]]:
    """The output values of ranked ``(doc id, score)`` hits, one per path.

    A declared field reads its cell of the hit's stored row, ``_score``
    the score it is given, and an undeclared dotted path is read off the
    document into a cell the way the store fills a row (a one-value list
    as its value, a longer one as a tuple).  Without ``_score`` and
    undeclared paths, hits are mapped through C builtins alone."""
    paths, layout = tuple(paths), store.stored_fields
    at = {name: i for i, name in enumerate(layout)}
    at["_score"] = len(layout)
    extra = tuple(dict.fromkeys(path for path in paths if path not in at))
    at.update((path, len(layout) + 1 + i) for i, path in enumerate(extra))
    pick, rows = tuple_getter([at[path] for path in paths]), store.stored_rows()
    if not extra and "_score" not in paths:
        return lambda ranked: list(map(pick, map(rows.__getitem__, map(itemgetter(0), ranked))))
    read, get = row_builder(extra), store.get
    return lambda ranked: [
        pick(rows[doc_id] + (score,) + (read(get(doc_id).fields) if extra else ()))
        for doc_id, score in ranked]


def _loose_equal(left: object, right: object) -> bool:
    """Does the stored value ``left`` match the binding ``right``?

    A ``str`` binding is compared the way the store's keyword index
    files a value — ``str(v).lower()``, any one value of a multi-valued
    field, a missing value never — so the documents a binding finds
    through the index are the ones this check keeps.
    """
    if left == right:
        return True
    if isinstance(left, tuple):
        return any(_loose_equal(item, right) for item in left)
    if isinstance(right, str) and left is not None:
        return str(left).lower() == right.lower()
    return False


# ---------------------------------------------------------------------------
# Batch execution helpers
# ---------------------------------------------------------------------------

def _scalar(value: object) -> bool:
    """True for values whose dict-key semantics match ``==`` filtering."""
    return value is None or isinstance(value, (str, int, float, bool))


def _partition_exact(answer: BindingBatch,
                     specs: list[list[tuple[str, object]]]) -> list[list[BindingBatch]]:
    """Distribute ``answer``'s rows to one answer per ``(column, value)`` spec.

    Matching uses plain ``==`` (the relational post-filter semantics);
    a hash index per distinct column tuple avoids rescanning the rows
    for every binding.  Rows are shared, never copied.
    """
    results: list[list[BindingBatch]] = []
    indexes: dict[tuple[str, ...], tuple[Callable, dict | None]] = {}
    for spec in specs:
        if not spec:
            results.append(as_answer(answer.columns, answer.rows))
            continue
        columns = tuple(c for c, _ in spec)
        if columns not in indexes:
            key_of, index = answer.projector(columns), {}
            for row in answer.rows:
                key = key_of(row)
                if not all(_scalar(v) for v in key):
                    index = None
                    break
                index.setdefault(key, []).append(row)
            indexes[columns] = key_of, index
        key_of, index = indexes[columns]
        wanted = tuple(v for _, v in spec)
        if index is not None and all(_scalar(v) for v in wanted):
            matched = index.get(wanted, [])
        else:
            matched = [row for row in answer.rows
                       if all(a == v for a, v in zip(key_of(row), wanted))]
        results.append(as_answer(answer.columns, matched))
    return results
