"""Basic Graph Pattern (BGP) queries — the conjunctive SPARQL subset.

A BGP is ``q(x̄) :- t1, ..., tn`` where each ``ti`` is a triple pattern.
Evaluation returns every embedding of the body into the graph, projected
on the head variables; the *answer* is the evaluation against the
saturated graph G∞ (see :mod:`repro.rdf.entailment`).

Evaluation is set-at-a-time over interned term ids (:func:`solve`): a
relation seeded by the caller's bound values joins each pattern in turn
by probing the index its constants and bound columns lead
(:meth:`~repro.rdf.graph.Graph.probe`), in an order picked once from the
graph's maintained counts — most selective connected pattern first, the
paper's "most selective sub-queries first" — and is deduplicated on id
tuples; the caller decodes each output value once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from repro.engine.batch import tuple_getter
from repro.errors import RDFError
from repro.rdf.entailment import saturate
from repro.rdf.graph import Graph, constant
from repro.rdf.schema import RDFSchema
from repro.rdf.terms import (
    Term,
    Triple,
    TriplePattern,
    Variable,
    pattern as make_pattern,
    var,
)

#: A solution mapping from variables to terms.
Binding = dict[Variable, Term]


@dataclass(frozen=True)
class BGPQuery:
    """A conjunctive query over a single RDF graph.

    Parameters
    ----------
    head:
        The projected (output) variables; empty means "project everything".
    patterns:
        The triple patterns of the body.
    name:
        Optional query name (used when the BGP is embedded in a CMQ).
    """

    head: tuple[Variable, ...]
    patterns: tuple[TriplePattern, ...]
    name: str = "q"

    def __post_init__(self) -> None:
        if not self.patterns:
            raise RDFError("a BGP query needs at least one triple pattern")
        body_vars = self.variables()
        for v in self.head:
            if v not in body_vars:
                raise RDFError(f"head variable {v} does not occur in the body")

    @classmethod
    def create(cls, head: Sequence[object], patterns: Iterable[Sequence[object]],
               name: str = "q") -> "BGPQuery":
        """Convenience constructor coercing plain strings/tuples."""
        head_vars = tuple(var(h) if isinstance(h, str) else h for h in head)
        body = tuple(
            p if isinstance(p, TriplePattern) else make_pattern(*p) for p in patterns
        )
        return cls(head=head_vars, patterns=body, name=name)

    def variables(self) -> set[Variable]:
        """Return every variable of the body."""
        out: set[Variable] = set()
        for p in self.patterns:
            out.update(p.variables())
        return out

    def output_variables(self) -> tuple[Variable, ...]:
        """Head variables (each once), or all body variables (sorted) if none."""
        if self.head:
            return tuple(dict.fromkeys(self.head))
        return tuple(sorted(self.variables(), key=lambda v: v.name))

    def bind(self, bindings: Binding) -> "BGPQuery":
        """Return a copy of the query with ``bindings`` substituted in the body."""
        new_patterns = tuple(p.bind(bindings) for p in self.patterns)
        new_head = tuple(v for v in self.head if v not in bindings)
        if not new_head and self.head:
            # Fully bound head: keep a dummy projection over remaining vars.
            remaining = set()
            for p in new_patterns:
                remaining.update(p.variables())
            new_head = tuple(sorted(remaining, key=lambda v: v.name))
            if not new_head:
                # Boolean query: keep the original head semantics by
                # projecting nothing; evaluation yields empty bindings.
                return BGPQuery(head=(), patterns=new_patterns, name=self.name)
        return BGPQuery(head=new_head, patterns=new_patterns, name=self.name)

    def __str__(self) -> str:  # pragma: no cover - trivial
        head = ", ".join(str(v) for v in self.output_variables())
        body = ", ".join(str(p) for p in self.patterns)
        return f"{self.name}({head}) :- {body}"


@dataclass
class EvaluationTrace:
    """Optional statistics collected during BGP evaluation."""

    pattern_order: list[TriplePattern] = field(default_factory=list)
    intermediate_sizes: list[int] = field(default_factory=list)
    matched_triples: int = 0


def solve(patterns: Sequence[TriplePattern], graph: Graph, columns: Sequence,
          rows: list[tuple], project: Sequence, delta: Iterable[Triple] | None = None,
          trace: EvaluationTrace | None = None) -> list[tuple]:
    """The distinct id tuples over ``project`` of the body ``patterns``
    joined with the relation ``rows`` over ``columns`` (variables, or a
    marker the caller carries through) on ``graph``, a :class:`Graph`
    read inside its ``reading()``.  With ``delta`` (triples of ``graph``),
    only the solutions using one of them — the delta rule: the union, over
    each pattern, of the relation joined with that pattern over ``delta``
    first, then with the other patterns over ``graph``.
    """
    if any(not isinstance(t, Variable) and t not in graph.dictionary.ids
           for p in patterns for t in p):
        return []
    starts = [(patterns, list(columns), rows)]
    if delta is not None:
        delta = _fitting(patterns, delta)
        if not delta:
            return []
        seeds = Graph("delta")
        seeds.dictionary = graph.dictionary
        seeds.add_all(delta)
        starts = [(patterns[:i] + patterns[i + 1:], joined, _join(seeds, p, joined, rows))
                  for i, p in enumerate(patterns) for joined in [list(columns)]]
    found: dict[tuple, None] = {}
    for body, joined, relation in starts:
        for p in _order_patterns(body, graph, joined) if relation else ():
            relation = _join(graph, p, joined, relation)
            if trace is not None:
                trace.pattern_order.append(p)
                trace.intermediate_sizes.append(len(relation))
                trace.matched_triples += len(relation)
            if not relation:
                break
        if relation:
            found.update(dict.fromkeys(map(tuple_getter(
                [joined.index(c) for c in project]), relation)))
    return list(found)


def _fitting(patterns: Sequence[TriplePattern], delta: Iterable[Triple]) -> list[Triple]:
    """The triples of ``delta`` that agree with some pattern's constants:
    only they can seed a solution."""
    shapes = [[(i, t) for i, t in enumerate(p) if not isinstance(t, Variable)]
              for p in patterns]
    fitting = []
    for t in delta:
        terms = tuple(t)
        if any(all(terms[i] == c for i, c in shape) for shape in shapes):
            fitting.append(t)
    return fitting


def evaluate_bgp(query: BGPQuery, graph: Graph, initial_binding: Binding | None = None,
                 trace: EvaluationTrace | None = None) -> list[Binding]:
    """Evaluate ``query`` on ``graph`` (no entailment) and return projected bindings.

    ``initial_binding`` pre-binds variables (used by the mediator's bind
    joins); the returned bindings contain only the query's output
    variables.
    """
    initial = initial_binding or {}
    output = query.output_variables()
    with graph.reading() as store:
        dictionary = store.dictionary
        if any(term not in dictionary.ids for term in initial.values()):
            return []
        rows = solve(query.patterns, store, tuple(initial),
                     [tuple(map(dictionary.ids.__getitem__, initial.values()))],
                     output, trace=trace)
    decode = dictionary.terms.__getitem__
    return [dict(zip(output, map(decode, row))) for row in rows]


def answer_bgp(query: BGPQuery, graph: Graph, schema: RDFSchema | None = None) -> list[Binding]:
    """Return the *answer* of ``query``: its evaluation against G∞."""
    return evaluate_bgp(query, saturate(graph, schema)[0])


def evaluate_ask(patterns: Iterable[TriplePattern], graph: Graph) -> bool:
    """Boolean (ASK) evaluation: does at least one embedding exist?"""
    return bool(evaluate_bgp(BGPQuery(head=(), patterns=tuple(patterns)), graph))


def _order_patterns(patterns: Sequence[TriplePattern], graph: Graph,
                    bound: Sequence) -> list[TriplePattern]:
    """Greedy selectivity ordering of the body patterns: at each step the
    pattern connected to the bound variables (no Cartesian products) with
    the lowest estimate — its :meth:`~repro.rdf.graph.Graph.count`, taken
    once from the maintained counts, cut tenfold per bound position."""
    remaining = [(p, [t for t in p if isinstance(t, Variable)], graph.count(p))
                 for p in patterns]
    bound, ordered = set(bound), []

    def score(item) -> tuple[int, int]:
        _, names, count = item
        for name in names:
            if name in bound:
                count = max(1, count // 10)
        return (0 if not ordered or not names or bound.intersection(names) else 1), count

    while remaining:
        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best[0])
        bound.update(best[1])
    return ordered


def _join(graph: Graph, pattern: TriplePattern, columns: list, rows: list[tuple]) -> list[tuple]:
    """``rows`` joined with ``pattern``: an index probe on its constants
    and the columns it shares; its new variables are appended to
    ``columns`` (a variable it repeats binds one column, kept where the
    positions agree)."""
    at = {c: i for i, c in enumerate(columns)}
    terms = tuple(pattern)
    keys = {i: itemgetter(at[t]) if t in at else constant(graph.dictionary.ids[t])
            for i, t in enumerate(terms) if not isinstance(t, Variable) or t in at}
    free, rows = graph.probe(keys, rows)
    new = [terms[i] for i in free]
    width, first = len(columns), {}
    for i, name in enumerate(new):
        first.setdefault(name, i)
    if len(first) < len(new):
        pairs = [(width + first[name], width + i) for i, name in enumerate(new)]
        keep = tuple_getter([*range(width), *(width + i for i in first.values())])
        rows = [keep(row) for row in rows if all(row[a] == row[b] for a, b in pairs)]
    columns.extend(first)
    return rows
