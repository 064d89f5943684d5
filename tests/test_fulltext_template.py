"""A full-text sub-query is parsed once, read in one place, bound by value."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FullTextQuery, FullTextSource
from repro.cache.keys import canonical_query
from repro.datasets import build_demo_instance
from repro.datasets.loader import TWEETS_URI
from repro.engine.batch import dict_rows
from repro.errors import FullTextError, MixedQueryError, ParseError
from repro.fulltext import FieldConfig, FullTextStore
from repro.fulltext.query import BooleanQuery, NotQuery, Parameter, PhraseQuery, TermQuery
from repro.fulltext.template import fulltext_template

# ---------------------------------------------------------------------------
# What a template knows
# ---------------------------------------------------------------------------

#: text -> the template's answers.
CASES = {
    "entities.hashtags:{tag}":
        dict(parameters={"tag"}, conjuncts=1, clauses={"tag": "entities.hashtags"}),
    # A bare parameter searches the store's default field: no path to name.
    "{w}": dict(parameters={"w"}, conjuncts=1, clauses={}),
    # Under OR a clause is not necessary for a hit ...
    "text:a OR tags:{g}": dict(parameters={"g"}, conjuncts=1, clauses={}),
    "NOT tags:{g}": dict(parameters={"g"}, conjuncts=1, clauses={}),
    # ... beside one it is, whatever the operators' case.
    "(text:a OR text:b) AND tags:{g}":
        dict(parameters={"g"}, conjuncts=2, clauses={"g": "tags"}),
    "(text:a or text:b) (tags:{g} and *:*)":
        dict(parameters={"g"}, conjuncts=3, clauses={"g": "tags"}),
    # Inside a phrase or a range, {x} is text.
    'text:"{x} now"': dict(parameters=set(), conjuncts=1, clauses={}),
    "count:[{x} TO 5]": dict(parameters=set(), conjuncts=1, clauses={}),
    "text:pre{x}": dict(parameters=set(), conjuncts=1, clauses={}),
    # One occurrence only.
    "tags:{g} tags:{g}": dict(parameters={"g"}, conjuncts=2, clauses={}),
    "tags:{g} author:{a}":
        dict(parameters={"g", "a"}, conjuncts=2, clauses={"g": "tags", "a": "author"}),
    "text:a or text:b": dict(parameters=set(), conjuncts=1, clauses={}),
}


@pytest.mark.parametrize("text", list(CASES))
def test_template_answers(text):
    expected = CASES[text]
    template = fulltext_template(text)
    assert template.parameters == expected["parameters"]
    assert len(template.conjuncts) == expected["conjuncts"]
    assert template.clause_parameters == expected["clauses"]
    query = FullTextQuery.create(text, {"i": "id"})
    assert query.template is template
    assert query.required_parameters() == expected["parameters"]
    assert query.query_template == text == str(query)


def test_one_text_is_parsed_once(monkeypatch):
    import repro.fulltext.template as template_module

    calls = []
    original = template_module.parse_query
    monkeypatch.setattr(template_module, "parse_query",
                        lambda text: calls.append(text) or original(text))
    text = "tags:{parsed_once}"
    assert fulltext_template(text) is fulltext_template(text)
    assert calls == [text]


def test_a_parameter_in_a_phrase_is_neither_renamed_nor_shared():
    def key(text):
        return canonical_query(FullTextQuery.create(text, {"i": "id"})).key

    assert key("tags:{x}") == key("tags:{y}")
    assert key('text:"{x} now"') != key('text:"{y} now"')
    assert key('text:"{x} now" tags:{x}') == key('text:"{x} now" tags:{z}')
    assert key("text:a tags:{x}") == key("text:a AND  tags:{x}")
    assert key("tags:{x} author:{y}") != key("tags:{x} author:{x}")


@pytest.mark.parametrize("text", ["text:(a", "a:b:c", "text:", "(text:a", "{x}:a",
                                  "count:[1 5]"])
def test_malformed_text_is_a_parse_error_when_the_query_is_first_analysed(text, demo):
    """At the latest at planning: before any source has been called."""
    called = []
    glue = demo.instance.glue_source
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(glue), "execute",
                      lambda self, *args: called.append(args) or [])
        with pytest.raises(ParseError):
            query = (demo.instance.builder("bad", head=["id", "t"])
                     .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
                     .fulltext("tweets", source=TWEETS_URI, query=text,
                               fields={"t": "text", "id": "user.screen_name"})
                     .build())
            demo.instance.execute(query)
    assert not called


def test_lower_case_or_is_an_or_for_the_estimator_too():
    source = _source()
    for text in ("body:budget or body:vote", "body:budget OR body:vote",
                 "NOT body:budget", 'body:"budget vote"', "count:[1 TO 5]"):
        assert source.derive_estimate(FullTextQuery.create(text, {"i": "id"}),
                                      set(), {}) is None
    both = FullTextQuery.create("body:budget and body:vote", {"i": "id"})
    assert source.derive_estimate(both, set(), {}) == \
        len(source.store.search(both.query_template, limit=None).hits)


# ---------------------------------------------------------------------------
# Binding by value
# ---------------------------------------------------------------------------

#: Values that are a term, an operator, a wildcard or a syntax error when
#: they are lexed as query text.
VALUES = ["Anne Hollier", "http://a.b/c", "(x", 'say "hi"', "a:b", "*", "AND", "or",
          "{x}", 42]

_DOCUMENTS = [
    {"id": f"d{n:02d}", "author": author, "tags": tags, "body": body, "count": count}
    for n, (author, tags, body, count) in enumerate([
        ("Anne Hollier", ["x", "*"], "Anne Hollier said hi to the budget", 1),
        ("anne hollier", ["(x"], "Hollier Anne and the vote", 42),
        ("Anne", ["Hollier"], "Anne met a Hollier", 7),
        ("http://a.b/c", ["a:b"], "see http://a.b/c for the budget", 42.5),
        ("(x", ["AND", "or"], "say hi", 0),
        ('say "hi"', ["{x}"], "rock and roll", 3),
        ("a:b", ["42"], "a or b", 3),
        ("*", [], "stars", 4),
        ("AND", ["Anne Hollier"], "AND gates", 5),
        ("OR", ["and"], "gold or silver", 6),
        ("{x}", ["http://a.b/c"], "braces {x} here", 8),
        ("42", ['say "hi"'], "the answer", 9),
        ("nobody", ["x"], "nothing", 10),
    ])
]

_FIELDS = {"keyword": "author", "multi-valued keyword": "tags", "text": "body",
           "numeric": "count"}


def _source(documents=_DOCUMENTS) -> FullTextSource:
    store = FullTextStore("values", [
        FieldConfig("body", "text"),
        FieldConfig("author", "keyword"),
        FieldConfig("tags", "keyword", multi_valued=True),
        FieldConfig("id", "keyword"),
        FieldConfig("count", "numeric"),
    ], default_field="body")
    store.add_all(documents)
    return FullTextSource("solr://values", store)


def _holds(store, path, value) -> set[str]:
    """Ids of the documents whose stored ``path`` is ``value``: read off the
    stored values, never through the query language."""
    wanted = str(value)
    ids = set()
    for document in store.documents():
        stored = document.get(path)
        if store.field_config(path).field_type == "text":
            have, want = store.analyzer.stems(stored), store.analyzer.stems(wanted)
            if len(wanted.split()) > 1:
                found = any(have[i:i + len(want)] == want for i in range(len(have)))
            else:
                found = set(want) <= set(have)
            if want and found:
                ids.add(document.doc_id)
        elif wanted.lower() in [str(v).lower() for v in
                                (stored if isinstance(stored, list) else [stored])]:
            ids.add(document.doc_id)
    return ids


def _ids(rows) -> set[str]:
    return {row["i"] for row in rows}


@pytest.mark.parametrize("kind", list(_FIELDS))
def test_a_bound_value_matches_the_documents_holding_it(kind):
    source, path = _source(), _FIELDS[kind]
    # ``v`` echoes the compared field: str values on a keyword field pool.
    query = FullTextQuery.create(f"{path}:{{p}}", {"i": "id", "v": path})
    for value in VALUES:
        expected = _holds(source.store, path, value)
        assert _ids(source.execute(query, {"p": value})) == expected, value
    for values in (VALUES, [v for v in VALUES if isinstance(v, str)]):
        batch = [{"p": value} for value in values]
        answers = list(map(dict_rows, source.execute_batch(query, batch)))
        assert answers == [source.execute(query, b) for b in batch]
        assert [_ids(rows) for rows in answers] == \
            [_holds(source.store, path, value) for value in values]
    assert any(_holds(source.store, path, value) for value in VALUES)


def test_a_bare_parameter_searches_the_default_field():
    source = _source()
    query = FullTextQuery.create("{w}", {"i": "id"})
    assert _ids(source.execute(query, {"w": "budget"})) == \
        _holds(source.store, "body", "budget") != set()
    assert _ids(source.execute(query, {"w": "*"})) == set()


def test_url_paren_and_star_bindings_return_exactly_the_documents_holding_them():
    """Each raised, or matched everything, when the value was lexed as text."""
    source = _source()
    query = FullTextQuery.create("author:{a}", {"i": "id"})
    assert _ids(source.execute(query, {"a": "http://a.b/c"})) == {"d03"}
    assert _ids(source.execute(query, {"a": "(x"})) == {"d04"}
    assert _ids(source.execute(query, {"a": "*"})) == {"d07"}
    # The wildcard is still there for whoever writes it.
    assert len(source.execute(FullTextQuery.create("author:*", {"i": "id"}))) == \
        len(_DOCUMENTS)


def test_a_name_joined_from_the_glue_graph_returns_that_politicians_tweets():
    demo = build_demo_instance()
    cmq = (demo.instance.builder("byName", head=["name", "id", "t"])
           .graph("SELECT ?name ?id WHERE { ?x foaf:name ?name . "
                  "?x ttn:twitterAccount ?id }")
           .fulltext("tweets", source=TWEETS_URI, query="user.name:{name}",
                     fields={"t": "text", "id": "user.screen_name"})
           .build())
    result = demo.instance.execute(cmq)
    store = demo.instance.source(TWEETS_URI).store
    assert len(result) == len(store) > 0
    by_name = {}
    for row in result.rows:
        by_name.setdefault(row["name"], []).append(row["t"])
    assert " " in next(iter(by_name))
    for name, texts in by_name.items():
        assert sorted(texts) == sorted(
            d.get("text") for d in store.documents() if d.get("user.name") == name)


def test_bound_terms_are_values_and_the_template_is_left_alone():
    template = fulltext_template("body:budget tags:{g} NOT author:{a}")
    bound = template.bind({"g": "x y", "a": "*", "unused": 1})
    assert bound == BooleanQuery("AND", (
        TermQuery("body", "budget"), TermQuery("tags", "x y", exact=True),
        NotQuery(TermQuery("author", "*", exact=True))))
    assert template.conjuncts[1] == Parameter("tags", "g")
    pooled = template.bind({"a": 7}, in_lists={"g": ["x", "y y"]})
    assert pooled.operands[1] == BooleanQuery("OR", (
        TermQuery("tags", "x", exact=True), TermQuery("tags", "y y", exact=True)))
    assert template.bind({"a": 7}, in_lists={"g": ["x"]}).operands[1] == \
        TermQuery("tags", "x", exact=True)
    assert fulltext_template("body:budget").bind({}) is fulltext_template("body:budget").query


def test_a_value_with_whitespace_is_a_phrase_on_a_text_field_only():
    source = _source()
    body = FullTextQuery.create("body:{p}", {"i": "id"})
    phrase = source.store.search(PhraseQuery("body", ("Anne", "Hollier")), limit=None)
    assert _ids(source.execute(body, {"p": "Anne Hollier"})) == \
        {hit.document.doc_id for hit in phrase.hits} == {"d00"}
    tags = FullTextQuery.create("tags:{p}", {"i": "id"})
    assert _ids(source.execute(tags, {"p": "anne hollier"})) == {"d08"}


def test_an_unbound_parameter_is_never_searched_for():
    source = _source()
    with pytest.raises(MixedQueryError, match=r"sub-query parameter \{p\} is not bound"):
        source.execute(FullTextQuery.create("tags:{p}", {"i": "id"}), {"q": "x"})
    with pytest.raises(MixedQueryError, match=r"\{p\} is not bound"):
        source.execute_batch(FullTextQuery.create("tags:{p} body:{w}", {"i": "id"}),
                             [{"p": "x", "w": "a"}, {"w": "a"}])
    with pytest.raises(FullTextError, match=r"\{w\} is not bound"):
        source.store.search("body:{w}")
    with pytest.raises(FullTextError):
        source.store.count("{w}")
    # ... while the text of a phrase is searched for as written.
    assert [hit.document.doc_id for hit in source.store.search('body:"braces {x}"').hits] \
        == ["d10"]


@pytest.mark.parametrize("text,fields", [
    ("tags:{tag}", {"i": "id", "g": "tags"}),
    ("body:{word}", {"i": "id"}),
])
def test_a_batch_parses_its_template_at_most_once(monkeypatch, text, fields):
    import repro.fulltext.store as store_module
    import repro.fulltext.template as template_module

    source = _source()
    calls = []
    for module in (store_module, template_module):
        original = module.parse_query
        monkeypatch.setattr(module, "parse_query",
                            lambda text, original=original: calls.append(text)
                            or original(text))
    fulltext_template.cache_clear()
    query = FullTextQuery.create(text, fields)
    parameter, = query.required_parameters()
    batch = [{parameter: f"value{n}"} for n in range(49)] + [{parameter: "x"}]
    answers = source.execute_batch(query, batch)
    assert len(answers) == 50
    assert calls in ([], [text])


_values = st.one_of(st.text(), st.sampled_from([v for v in VALUES if isinstance(v, str)]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(list(_FIELDS)), values=st.lists(_values, min_size=1, max_size=5))
def test_binding_never_raises_and_a_batch_is_its_bindings(kind, values):
    source, path = _SOURCE, _FIELDS[kind]
    query = FullTextQuery.create(f"{path}:{{p}} NOT author:nobody", {"i": "id", "v": path})
    batch = [{"p": value} for value in values]
    answers = list(map(dict_rows, source.execute_batch(query, batch)))
    assert answers == [source.execute(query, b) for b in batch]
    for value, rows in zip(values, answers):
        assert _ids(rows) == _holds(source.store, path, value) - {"d12"}


_SOURCE = _source()
