"""Every query language reads through one lexer (``repro.lexing``).

* a double-quoted string reads back the same text in Turtle, SPARQL, a
  tree pattern and a CMQ, spelled as each one's writer spells it;
* the same escapes decode alike, and an unknown escape is refused, in
  every language that quotes with ``"``;
* ``ParseError.position`` is a character offset in all six readers: the
  offending token starts there, and the end of the input is ``len(text)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AtomTemplateRegistry, parse_cmq
from repro.errors import ParseError
from repro.fulltext.query import parse_query
from repro.json.parser import parse_pattern
from repro.json.pattern import render_value
from repro.rdf import Literal, Triple, URI, parse_bgp, parse_ntriples, serialize_ntriples
from repro.relational import parse_sql


def _registry() -> AtomTemplateRegistry:
    registry = AtomTemplateRegistry()
    registry.register_fulltext("tweetContains", query="entities.hashtags:{tag}",
                               fields={"t": "text", "id": "user.screen_name"},
                               parameters=("t", "id", "tag"), default_source="solr://tweets")
    return registry


REGISTRY = _registry()


def _serialized(value: str) -> str:
    """``value`` as the N-Triples serializer spells a literal."""
    line = serialize_ntriples([Triple(URI("http://ex.org/a"), URI("http://ex.org/p"),
                                      Literal(value))])
    return line[line.index('"'):line.rindex('"') + 1]


def _turtle(spelled: str) -> str:
    return next(iter(parse_ntriples(f"ttn:a ttn:p {spelled} ."))).obj.value


def _sparql(spelled: str) -> str:
    return parse_bgp(f"SELECT ?x WHERE {{ ?x ttn:p {spelled} }}").patterns[0].obj.value


def _pattern(spelled: str) -> str:
    return parse_pattern(f"{{ a: {spelled} }}").leaves[0].predicates[0].value


def _cmq(spelled: str) -> str:
    return parse_cmq(f"q(t) :- tweetContains(t, id, {spelled})", REGISTRY).atoms[0].constants["tag"]


READERS = {"turtle": _turtle, "sparql": _sparql, "tree pattern": _pattern, "cmq": _cmq}


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_every_language_reads_back_the_text_its_writer_spelled(value):
    triple = Triple(URI("http://ex.org/a"), URI("http://ex.org/p"), Literal(value))
    assert list(parse_ntriples(serialize_ntriples([triple]))) == [triple]
    assert _sparql(_serialized(value)) == value
    assert _pattern(render_value(value)) == value
    assert _cmq(_serialized(value)) == value


@pytest.mark.parametrize("reader", list(READERS))
def test_every_language_decodes_the_same_escapes(reader):
    assert READERS[reader](r'"a\\b\nc\"d\téé\U0001F600\/"') == 'a\\b\nc"d\téé\U0001F600/'


@pytest.mark.parametrize("reader", list(READERS))
def test_every_language_refuses_an_unknown_escape(reader):
    text = r'"ab\qc"'
    with pytest.raises(ParseError) as caught:
        READERS[reader](text)
    assert caught.value.message.startswith("unknown escape")


def test_sparql_reads_a_prefixed_datatype_and_turtle_abbreviations():
    patterns = parse_bgp('SELECT ?x WHERE { ?x ttn:age "5"^^xsd:integer ; '
                         'ttn:name "a"@fr , "b" . }').patterns
    assert [p.obj for p in patterns] == [
        Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer"),
        Literal("a", language="fr"), Literal("b")]
    assert len({p.subject for p in patterns}) == 1


#: reader -> (its parse function, a text with an offending token, the
#: text that token starts, a text cut short)
POSITIONS = {
    "sql": (parse_sql, "SELECT a FROM t WHERE a = = 1", "= 1", "SELECT a FROM"),
    "fulltext": (parse_query, "text:(a OR b)", "(a OR b)", "(text:a OR"),
    "tree pattern": (parse_pattern, "{ a: ?x, b: }", "}", "{ a: "),
    "sparql": (parse_bgp, "SELECT ?x WHERE { ?x ttn:p ?y } LIMIT ?z", "?z",
               "SELECT ?x WHERE { ?x ttn:p"),
    "turtle": (parse_ntriples, "ttn:a ttn:p ttn:b .\nttn:a ttn:p ttn:b ttn:c .",
               "ttn:c .", "ttn:a ttn:p"),
    "cmq": (lambda text: parse_cmq(text, REGISTRY),
            'q(t) :- tweetContains(t, id, "x") tweetContains(t, id, "y")',
            'tweetContains(t, id, "y")', 'q(t) :- tweetContains(t, id, "x"'),
}


@pytest.mark.parametrize("reader", list(POSITIONS))
def test_parse_error_positions_are_character_offsets(reader):
    parse, text, offending, cut = POSITIONS[reader]
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert text[caught.value.position:] == offending
    with pytest.raises(ParseError) as caught:
        parse(cut)
    assert caught.value.position == len(cut)
