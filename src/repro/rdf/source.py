"""The RDF source wrapper: BGP sub-queries over a graph, or over its G∞
(with entailment), for the mediator (:mod:`repro.core.sources`)."""

from __future__ import annotations

import re
import threading
from dataclasses import astuple, dataclass
from typing import Iterable, Optional, Sequence

from repro.cache.keys import CanonicalQuery, Namer
from repro.core.deltas import INSERT
from repro.core.sources import DataSource, RepairView, SourceQuery, _instrumented
from repro.digest.graph import DigestNode, SourceDigest, safe_name
from repro.digest.valueset import ValueSetSummary
from repro.engine.batch import BindingBatch, Row, as_answer, tuple_decoder
from repro.errors import KeywordSearchError
from repro.rdf.bgp import BGPQuery, solve
from repro.rdf.entailment import saturate, saturate_delta
from repro.rdf.graph import Graph
from repro.rdf.schema import RDFSchema
from repro.rdf.sparql import parse_bgp
from repro.rdf.summary import RDFSummary, SummaryNode
from repro.rdf.terms import Literal, Term, TriplePattern, URI, Variable, literal, uri


#: CURIE shape: letter-led prefix, exactly one colon — timestamps and
#: clock values ("2016-09-01T12:00:00") must not qualify.
_CURIE_RE = re.compile(r"[A-Za-z][\w.-]*:[^\s:]+")


@dataclass(frozen=True)
class RDFQuery(SourceQuery):
    """A BGP over an RDF source (or the glue graph).

    Variables of the BGP become mediator variables of the same name.
    """

    bgp: BGPQuery
    model = "rdf"
    distinct = True

    @classmethod
    def from_text(cls, sparql_text: str, name: str = "q") -> "RDFQuery":
        """Build from a SPARQL SELECT string (conjunctive subset)."""
        return cls(bgp=parse_bgp(sparql_text, name=name))

    def output_variables(self) -> set[str]:
        return {v.name for v in self.bgp.output_variables()}

    def derive_canonical(self) -> CanonicalQuery:
        # Constant terms enter as plain tuples (type name, fields): the key
        # then hashes without a Python-level ``__hash__`` per term.
        canon = Namer()
        patterns = []
        for pattern in self.bgp.patterns:
            patterns.append(tuple(("v", canon(term.name)) if isinstance(term, Variable)
                                  else (type(term).__name__,) + astuple(term)
                                  for term in pattern))
        head = tuple(canon(v.name) for v in self.bgp.head)
        return CanonicalQuery("rdf", (tuple(patterns), head, bool(self.bgp.head)),
                              canon.mapping)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return str(self.bgp)


class _Closure:
    """The one G∞ lineage of an RDF source, shared by the live wrapper and
    its pins: ``graph`` saturates the source graph at ``state`` (its
    ``(additions, removals)``).  Additions extend it in place by
    :func:`~repro.rdf.entailment.saturate_delta` over the journalled delta
    (the set difference only on a journal gap); a removal saturates anew.
    ``versions`` maps each raw version the lineage stood at to G∞'s, so
    what a raw span added to G∞ — ΔG∞ — is G∞'s own log between the two
    (:meth:`delta`).  A raw version is dropped once G∞'s log no longer
    chains from its G∞ version (:attr:`~repro.core.deltas.DeltaJournal.oldest`):
    it keeps what repair can use, and so does the map.
    """

    __slots__ = ("lock", "graph", "schema", "state", "versions")

    def __init__(self):
        self.lock, self.graph, self.schema, self.state = threading.Lock(), None, None, (-1, -1)
        self.versions: dict[int, int] = {}

    def at(self, source: Graph, snapshot: bool = False) -> Graph | None:
        """G∞ (a snapshot of it, when ``snapshot``) of ``source``, the graph
        or a snapshot of it — None when the lineage is already past it."""
        with self.lock, source.reading() as graph:
            state = (source.additions, source.removals)
            if self.graph is not None and state != self.state:
                if sum(state) < sum(self.state):
                    return None
                if state[1] == self.state[1]:
                    records = source.deltas_since(sum(self.state), sum(state))
                    delta = ([t for t in graph if t not in self.graph] if records is None
                             else [t for record in records for t in record.items])
                    saturate_delta(self.graph, delta, schema=self.schema)
                    self.state = state
                else:
                    self.graph = None
            if self.graph is None:
                self.graph, _ = saturate(graph)
                self.schema = RDFSchema.from_graph(self.graph)
                self.state, self.versions = state, {}
            versions, oldest = self.versions, self.graph.journal.oldest
            versions[sum(state)] = self.graph.version
            while next(iter(versions.values())) < oldest:  # G∞'s log dropped it
                del versions[next(iter(versions))]
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
    store_attribute = "graph"

    def __init__(self, source_uri: str, graph: Graph, name: str | None = None,
                 description: str = "", entailment: bool = False):
        super().__init__(source_uri, name or graph.name, description)
        self.graph = graph
        self.entailment = entailment
        #: The G∞ lineage shared with the pins (read with entailment only).
        self.closure = _Closure()
        #: A pin's own G∞ once read (None on a live wrapper).
        self._saturated: Graph | None = None

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
                with self.graph.reading() as graph:
                    saturated, _ = saturate(graph)
            self._saturated = saturated
        return saturated

    def add_triples(self, triples: Iterable) -> int:
        """Add triples to the source graph as one batch — one version
        bump and one journal record, the delta G∞ absorbs at its next
        read — and return how many were new."""
        return len(self.graph.add_batch(triples))

    def _over_snapshot(self, frozen: Graph) -> "RDFSource":
        """The wrapper over a snapshot of the graph and — with entailment —
        a snapshot of the shared G∞ lineage, brought up to the pinned
        version from the journal (lazily, when nothing is saturated yet).
        Both are watermarks, not copies.
        """
        pinned = self._pinned_copy(graph=frozen)
        if self.entailment and self.closure.graph is not None:
            pinned._saturated = self.closure.at(frozen, snapshot=True)
        return pinned

    execute = DataSource.execute  # the class's own: benchmarks/e2e/spans.py wraps it

    @_instrumented
    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[BindingBatch]]:
        """Batched BGP evaluation: the whole flush seeds one join
        (:meth:`seeded_ids`, :func:`_answers`)."""
        return _answers(self.effective_graph(), query,
                        [bindings or {} for bindings in bindings_batch])

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

    def derive_estimate(self, query: RDFQuery, bound: set[str],
                        values: Row) -> Optional[float]:
        """Index-count estimate of a BGP: per-pattern triple counts from the
        graph's permutation indexes, with join-variable reductions from
        position distinct counts."""
        with self.effective_graph().reading() as graph:
            bgp = query.bgp
            if values:
                binding = {variable: to_rdf_term(values[variable.name])
                           for variable in bgp.variables() if variable.name in values}
                if binding:
                    bgp = bgp.bind(binding)
            patterns = list(bgp.patterns)
            if not patterns:
                return 0.0
            counted = sorted((graph.count(p), i, p) for i, p in enumerate(patterns))
            if counted[0][0] == 0:
                return 0.0
            cardinality: Optional[float] = None
            seen: set[str] = set()
            for count, _, pattern in counted:
                names = _pattern_variables(pattern)
                if cardinality is None:
                    cardinality = float(count)
                else:
                    shared = names & seen
                    if shared:
                        reduction = max(_distinct_at(graph, pattern, name)
                                        for name in shared)
                        cardinality *= count / max(1.0, reduction)
                    else:
                        cardinality *= count
                seen |= names
            assert cardinality is not None
            # Mediator-bound variables with unknown values: each fixes the
            # variable to one of its distinct values.
            for name in (query.output_variables() & bound) - set(values):
                distincts = [_distinct_at(graph, p, name) for p in patterns
                             if name in _pattern_variables(p)]
                if distincts:
                    cardinality /= max(1.0, max(distincts))
            return max(0.0, cardinality)

    def derive_digest(self, summarize=ValueSetSummary) -> SourceDigest:
        """Nodes from the graph's structural summary: one per property
        (local name) of each summary class, valued with what a query
        returns there (URIs also by their local names, for keywords only);
        summary nodes labelled with one class pool their values there.
        Edges, each once, join the properties of a summary node and follow
        each summary edge."""
        with self.graph.reading() as graph:
            digest = SourceDigest(self.uri, self.model, version=self.version())
            summary, triples = RDFSummary.build(graph), len(graph)
        values_at: dict[DigestNode, set] = {}
        nodes_by_summary: dict[str, list[DigestNode]] = {}
        for node_id, summary_node in summary.nodes.items():
            container = _container_label(summary_node)
            nodes_by_summary[node_id] = property_nodes = []
            for prop in sorted(summary_node.properties, key=str):
                values = summary.values.get((node_id, prop), set())
                node = DigestNode(self.uri, container, _local_name(prop), kind="rdf-property")
                held = values_at.get(node)
                values_at[node] = values if held is None else held | values
                if node not in property_nodes:
                    property_nodes.append(node)
        for node, values in values_at.items():
            digest.add_node(node, summarize(
                [_joinable(v) for v in values],
                keyword_aliases=[v.local_name for v in values if isinstance(v, URI)]))
        edges: dict[tuple, float] = {}
        for property_nodes in nodes_by_summary.values():
            for i, left in enumerate(property_nodes):
                for right in property_nodes[i + 1:]:
                    edges.setdefault((left, right, "same-container"), 1.0)
        for edge in summary.edges:
            for left in nodes_by_summary.get(edge.source, []):
                if left.position != _local_name(edge.prop):
                    continue
                for right in nodes_by_summary.get(edge.target, []):
                    edges.setdefault((left, right, "reference"), 0.5)
        for (left, right, kind), weight in edges.items():
            digest.add_edge(left, right, kind=kind, weight=weight)
        digest.metadata["summary_nodes"] = len(summary.nodes)
        digest.metadata["triples"] = triples
        return digest

    def keyword_atom(self, nodes: list[DigestNode], variables: dict, hits: dict) -> tuple:
        """A BGP with one pattern per path property, on the subject of its
        summary class; a hit's property takes the stored term matching the
        keyword as its object."""
        patterns: list[TriplePattern] = []
        output: list[Variable] = []
        with self.graph.reading() as graph:
            predicates = {_local_name(p): p for p in graph.predicates()}
            for node in nodes:
                prop = predicates.get(node.position)
                if prop is None:
                    raise KeywordSearchError(
                        f"property {node.position!r} not found in RDF source {self.uri!r}")
                subject = Variable(f"e_{safe_name(node.container)}")
                hit = hits.get(node)
                term = _find_object(graph, prop, hit.keyword) if hit is not None else None
                if term is not None:
                    patterns.append(TriplePattern(subject, prop, term))
                    continue
                value_var = Variable(variables[node])
                patterns.append(TriplePattern(subject, prop, value_var))
                if value_var not in output:
                    output.append(value_var)
        if not output:
            # Every position was constrained to a constant: expose the subject.
            output = [patterns[0].subject]
        bgp = BGPQuery(head=tuple(output), patterns=tuple(patterns), name="qG")
        return f"rdf_{safe_name(nodes[0].container)}", RDFQuery(bgp=bgp), {}

    def repair_delta(self, query: RDFQuery, records: list, engine):
        """BGPs with a non-empty head repair, insert-only, on any source —
        with entailment too.  The delta is what the chain added to the
        graph the BGP reads: the explicit triples, or ΔG∞, the triples G∞
        gained, read off G∞'s own journal (:meth:`_delta_graph`).  Repair
        is a seeded semi-naive step through the BGP engine: per pattern,
        the delta triples it unifies with, joined with the probes'
        bindings, are the first relation, and the other patterns are
        joined over the graph *at the chain's end*, so joins between new
        and pre-existing triples, and between two new ones, are found
        (BGP results are distinct: the engine keeps the rows an entry
        lacks)."""
        if not query.bgp.head:
            # Head-less (ASK-style) shapes are not row streams.
            return "shape"
        if any(r.kind != INSERT for r in records):
            # A removed triple may take rows any solution joined.
            return "removals"
        found = self._delta_graph(records)
        if found is None:
            return "no_journal"
        graph, delta = found
        if len(delta) * len(query.bgp.patterns) > engine.MAX_DELTA_ITEMS:
            return "delta_too_large"
        return RepairView(_answers, graph, delta), None

    def _delta_graph(self, records: list):
        """The graph an entry is repaired on — G∞ under entailment — at the
        chain's end, and the triples the chain added to it: ΔG∞, or the
        explicit triples; None when the G∞ lineage cannot say (it did not
        stand at both ends)."""
        if not self.entailment:
            return self.graph, [t for record in records for t in record.items]
        graph = self.effective_graph()  # brings the lineage to the chain's end
        delta = self.closure.delta(records[0].pre_version, records[-1].post_version)
        return None if delta is None else (graph, delta)


def _answers(graph: Graph, query: RDFQuery, batch: Sequence[Row],
             delta: Iterable | None = None) -> list[list[BindingBatch]]:
    """Per binding of ``batch``, ``query``'s answer on ``graph`` (with
    ``delta``: of the solutions using one of its triples), each output id
    decoded once, through the graph's term dictionary, by one compiled
    tuple decoder."""
    columns = tuple(v.name for v in query.bgp.output_variables())
    decode = tuple_decoder(len(columns))
    with graph.reading() as store:
        return [as_answer(columns, decode(rows, store.dictionary))
                for rows in RDFSource.seeded_ids(store, query.bgp, batch, delta)]


def _pattern_variables(pattern) -> set[str]:
    return {term.name for term in (pattern.subject, pattern.predicate, pattern.obj)
            if isinstance(term, Variable)}


def _distinct_at(graph, pattern, name: str) -> float:
    """Distinct values the graph holds at ``name``'s position in ``pattern``."""
    predicate = pattern.predicate if isinstance(pattern.predicate, URI) else None
    if isinstance(pattern.subject, Variable) and pattern.subject.name == name:
        obj = pattern.obj if not isinstance(pattern.obj, Variable) else None
        return float(len(graph.subjects(predicate=predicate, obj=obj)) or 1)
    if isinstance(pattern.obj, Variable) and pattern.obj.name == name:
        subject = pattern.subject if not isinstance(pattern.subject, Variable) else None
        return float(len(graph.objects(subject=subject, predicate=predicate)) or 1)
    return float(len(graph.predicates()) or 1)


def _local_name(term: Term) -> str:
    return term.local_name if isinstance(term, URI) else str(term)


def _joinable(term: object) -> object:
    """The value a query returns for ``term``."""
    if isinstance(term, URI):
        return term.value
    if isinstance(term, Literal):
        return term.to_python()
    return term


def _container_label(summary_node: SummaryNode) -> str:
    """A summary node's first class's local name, or its own id's."""
    classes = sorted(_local_name(c) for c in summary_node.classes)
    return classes[0] if classes else summary_node.node_id.split("#", 1)[-1]


def _find_object(graph: Graph, prop: URI, keyword: str) -> Term | None:
    """The first object of ``prop`` whose display form matches ``keyword``."""
    needle = _squeeze(keyword)
    for found in graph.match(TriplePattern(Variable("s"), prop, Variable("o"))):
        display = _squeeze(found.obj.value if isinstance(found.obj, Literal)
                           else _local_name(found.obj))
        if needle in display:
            return found.obj
    return None


def _squeeze(text: str) -> str:
    return "".join(ch for ch in str(text).lower() if ch.isalnum())


def to_rdf_term(value: object) -> Term:
    """The RDF term a mediator value stands for: a URI for an absolute
    HTTP(S) or URN string, a literal otherwise."""
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
        terms.append(to_rdf_term(variant))
    if (isinstance(value, str) and _CURIE_RE.fullmatch(value)
            and not value.startswith(("http://", "https://", "urn:"))):
        candidate = URI(value)
        if candidate not in terms:
            terms.append(candidate)
    return terms
