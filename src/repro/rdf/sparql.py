"""A SPARQL-subset parser producing :class:`~repro.rdf.bgp.BGPQuery` objects.

The paper's RDF sources "can be readily queried through SPARQL endpoints";
within TATOOINE the relevant fragment is the conjunctive one (BGPs).  The
grammar supported here:

.. code-block:: text

    query     := prologue? SELECT (DISTINCT)? vars WHERE '{' triples '}' modifiers?
    prologue  := (PREFIX name ':' '<' iri '>')*
    vars      := '*' | var+
    triples   := (subject objects (';' objects)* ';'? '.'?)*
    objects   := predicate object (',' object)*
    modifiers := (LIMIT int)?

Terms may be ``<iri>``, ``prefix:local``, ``?var``, numbers, or quoted
literals with an ``@lang`` tag or a ``^^<iri>`` / ``^^prefix:local``
datatype; ``a`` abbreviates ``rdf:type``.  The WHERE block is read by
Turtle's statement reader (:class:`~repro.rdf.ntriples.TermReader`), so
``;`` and ``,`` share a subject or a subject and predicate, and a
literal decodes its escapes as N-Triples does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParseError
from repro.lexing import grammar, tokenize
from repro.rdf.bgp import BGPQuery
from repro.rdf.ntriples import TERM_GROUPS, TermReader
from repro.rdf.terms import DEFAULT_PREFIXES, TriplePattern, Variable

_SPARQL_TOKEN_RE = grammar(
    r"""
      (?P<keyword>\b(?:PREFIX|SELECT|DISTINCT|WHERE|LIMIT)\b)
    | (?P<var>\?[A-Za-z_][\w]*)
    | (?P<star>\*)
    | (?P<brace>[{}])
    | """ + TERM_GROUPS,
    ignore_case=True,
)


@dataclass(frozen=True)
class ParsedSelect:
    """Result of parsing a SELECT query: the BGP plus SELECT-level options."""

    query: BGPQuery
    distinct: bool = False
    limit: int | None = None


def parse_sparql(text: str, name: str = "q") -> ParsedSelect:
    """Parse a SELECT query in the supported subset."""
    reader = TermReader(text, tokenize(text, _SPARQL_TOKEN_RE), dict(DEFAULT_PREFIXES))
    while reader.accept("PREFIX"):
        reader.declare_prefix()
    reader.expect("SELECT")
    distinct = bool(reader.accept("DISTINCT"))
    head: list[Variable] = []
    if not reader.accept("*"):
        while (token := reader.peek()) is not None and token.kind == "var":
            head.append(reader.term())
        if not head:
            raise ParseError("SELECT needs at least one variable or *",
                             position=token.position if token else reader.length)
    reader.expect("WHERE")
    brace = reader.expect("{")
    patterns: list[TriplePattern] = []
    while not reader.accept("}"):
        patterns.extend(TriplePattern(*triple) for triple in reader.statement())
        reader.accept(".")
    if not patterns:
        raise ParseError("empty group pattern", position=brace.position)
    limit = None
    if reader.accept("LIMIT"):
        token = reader.next()
        if token.kind != "number":
            raise ParseError("LIMIT requires an integer", position=token.position)
        limit = int(float(token.text))
    reader.expect_end()
    query = BGPQuery(head=tuple(head), patterns=tuple(patterns), name=name)
    return ParsedSelect(query=query, distinct=distinct, limit=limit)


def parse_bgp(text: str, name: str = "q") -> BGPQuery:
    """Parse a SELECT query and return only its BGP."""
    return parse_sparql(text, name=name).query
