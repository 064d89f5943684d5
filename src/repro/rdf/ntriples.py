"""A small N-Triples / Turtle-subset parser and serializer.

Journalists' hand-curated glue data (party classifications, elected
representatives scraped into tabular files) is "easily exported into RDF"
(paper, §1).  This module provides the textual round-trip: parsing
N-Triples and a pragmatic Turtle subset (``@prefix``, qualified names,
``;`` and ``,`` abbreviations, ``a`` for ``rdf:type``), and serialising a
graph back to N-Triples.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import ParseError
from repro.lexing import Token, TokenStream, grammar, tokenize, unquote
from repro.rdf.graph import Graph
from repro.rdf.terms import (
    DEFAULT_PREFIXES,
    RDF_TYPE,
    BlankNode,
    Literal,
    PatternTerm,
    Term,
    Triple,
    URI,
    Variable,
    XSD_NS,
)

#: The RDF terms and punctuation Turtle and SPARQL share.  A local name
#: never ends in ``.``, so ``ex:c.`` ends its statement.
TERM_GROUPS = r"""
      (?P<comment>\#[^\n]*)
    | (?P<uri><[^>]*>)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<langtag>@[A-Za-z-]+)
    | (?P<datatype>\^\^)
    | (?P<qname>[A-Za-z_][\w.-]*:(?:[A-Za-z_](?:[\w.-]*[\w-])?)?)
    | (?P<a>\ba\b)
    | (?P<number>[+-]?\d+(?:\.\d+)?)
    | (?P<punct>[;,.])
"""

_TURTLE_RE = grammar(r"(?P<bnode>_:[A-Za-z_][\w-]*) |" + TERM_GROUPS)


def parse_ntriples(text: str, graph_name: str = "parsed") -> Graph:
    """Parse N-Triples / Turtle-subset ``text`` into a new :class:`Graph`."""
    graph = Graph(name=graph_name)
    graph.add_all(iter_triples(text))
    return graph


def iter_triples(text: str) -> Iterator[Triple]:
    """Yield the triples of a N-Triples / Turtle-subset document."""
    reader = TermReader(text, tokenize(text, _TURTLE_RE), dict(DEFAULT_PREFIXES))
    while reader.peek() is not None:
        if reader.accept("."):
            continue
        if reader.accept("@prefix"):
            reader.declare_prefix()
        else:
            for subject, predicate, obj in reader.statement():
                yield Triple(subject, predicate, obj)
        if not reader.accept("."):
            reader.expect_end()


def serialize_ntriples(graph: Graph | Iterable[Triple]) -> str:
    """Serialise ``graph`` as sorted N-Triples text."""
    lines = sorted(_serialize_triple(t) for t in graph)
    return "\n".join(lines) + ("\n" if lines else "")


class TermReader(TokenStream):
    """Reads RDF terms, and statements with the ``;`` and ``,``
    abbreviations, off tokens of :data:`TERM_GROUPS`: a Turtle document's,
    and the WHERE block of a SPARQL query (whose ``?var`` tokens it reads
    as variables)."""

    def __init__(self, text: str, tokens: list[Token], prefixes: dict[str, str]):
        super().__init__(text, tokens)
        self.prefixes = prefixes

    def declare_prefix(self) -> None:
        """Read ``name: <iri>`` after ``@prefix`` or ``PREFIX``."""
        name, iri = self.next(), self.next()
        if name.kind != "qname" or iri.kind != "uri":
            raise ParseError("malformed prefix declaration", position=name.position)
        self.prefixes[name.text.partition(":")[0]] = iri.text[1:-1]

    def statement(self) -> list[tuple[PatternTerm, PatternTerm, PatternTerm]]:
        """The ``(subject, predicate, object)`` triples of one statement,
        up to its ``.``."""
        subject = self.term()
        triples = []
        while True:
            start = self.index
            predicate = self.term()
            if isinstance(predicate, (Literal, BlankNode)):
                raise ParseError(f"predicate must be a URI, got {predicate}",
                                 position=self.tokens[start].position)
            triples.append((subject, predicate, self.term()))
            while self.accept(","):
                triples.append((subject, predicate, self.term()))
            if not self.accept(";"):
                return triples
            after = self.peek()
            if after is None or after.text in (".", "}"):
                return triples

    def term(self) -> PatternTerm:
        token = self.next()
        kind = token.kind
        if kind == "qname":
            return URI(self._expand(token))
        if kind == "var":
            return Variable(token.text[1:])
        if kind == "uri":
            return URI(token.text[1:-1])
        if kind == "string":
            return self._literal(unquote(token.text, token.position))
        if kind == "a":
            return RDF_TYPE
        if kind == "number":
            return Literal(token.text, datatype=XSD_NS + (
                "decimal" if "." in token.text else "integer"))
        if kind == "bnode":
            return BlankNode(token.text[2:])
        raise ParseError(f"unexpected token {token.text!r}", position=token.position)

    def _literal(self, value: str) -> Literal:
        """The literal of ``value`` and the language tag or ``^^`` datatype
        that may follow it."""
        after = self.peek()
        if after is not None and after.kind == "langtag":
            self.index += 1
            return Literal(value, language=after.text[1:])
        if self.accept("^^"):
            datatype = self.next()
            if datatype.kind == "uri":
                return Literal(value, datatype=datatype.text[1:-1])
            if datatype.kind == "qname":
                return Literal(value, datatype=self._expand(datatype))
            raise ParseError(f"malformed datatype {datatype.text!r}", position=datatype.position)
        return Literal(value)

    def _expand(self, token: Token) -> str:
        prefix, _, local = token.text.partition(":")
        if prefix not in self.prefixes:
            raise ParseError(f"unknown prefix {prefix!r}", position=token.position)
        return self.prefixes[prefix] + local


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )


def _serialize_term(term: Term) -> str:
    if isinstance(term, URI):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        base = f'"{_escape(term.value)}"'
        if term.language:
            return f"{base}@{term.language}"
        if term.datatype:
            return f"{base}^^<{term.datatype}>"
        return base
    raise ParseError(f"cannot serialise {term!r}")


def _serialize_triple(t: Triple) -> str:
    return f"{_serialize_term(t.subject)} {_serialize_term(t.predicate)} {_serialize_term(t.obj)} ."
