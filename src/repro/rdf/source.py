"""The RDF source wrapper: BGP sub-queries over a graph, or over its G∞
(with entailment), for the mediator (:mod:`repro.core.sources`)."""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.sources import DataSource, SourceQuery, _instrumented
from repro.engine.batch import BindingBatch, Row, as_answer, dict_rows, tuple_decoder
from repro.rdf.bgp import BGPQuery, solve
from repro.rdf.entailment import saturate, saturate_delta
from repro.rdf.graph import Graph
from repro.rdf.schema import RDFSchema
from repro.rdf.sparql import parse_bgp
from repro.rdf.terms import Literal, Term, URI, literal, uri


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

    @classmethod
    def from_text(cls, sparql_text: str, name: str = "q") -> "RDFQuery":
        """Build from a SPARQL SELECT string (conjunctive subset)."""
        return cls(bgp=parse_bgp(sparql_text, name=name))

    def output_variables(self) -> set[str]:
        return {v.name for v in self.bgp.output_variables()}

    def __str__(self) -> str:  # pragma: no cover - trivial
        return str(self.bgp)


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
                saturated, _ = saturate(self.graph)
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

    def execute(self, query: SourceQuery, bindings: Row | None = None) -> list[Row]:
        return dict_rows(self.execute_batch(query, [bindings or {}])[0])

    @_instrumented
    def execute_batch(self, query: SourceQuery,
                      bindings_batch: Sequence[Row]) -> list[list[BindingBatch]]:
        """Batched BGP evaluation: the whole flush seeds one join
        (:meth:`seeded_ids`), and each output id is decoded once, through
        the graph's term dictionary, by one compiled tuple decoder."""
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
