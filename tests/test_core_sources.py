"""Unit tests for the per-model source wrappers and sub-query descriptions."""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.fulltext.source as fulltext_source
import repro.fulltext.store as fulltext_store
from repro.core import FullTextQuery, FullTextSource, RDFQuery, RDFSource, RelationalSource, SQLQuery
from repro.fulltext.source import _loose_equal
from repro.datasets import DemoConfig, build_demo_instance
from repro.datasets.loader import TWEETS_URI
from repro.engine.batch import dict_rows
from repro.errors import MixedQueryError, SQLParseError
from repro.fulltext import FieldConfig, FullTextStore
from repro.fulltext.query import BooleanQuery, TermQuery, parse_query


class TestRDFQueryAndSource:
    def test_output_variables(self):
        q = RDFQuery.from_text("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
        assert q.output_variables() == {"id"}
        assert q.required_parameters() == set()

    def test_execute_returns_python_values(self, politics_graph):
        source = RDFSource("rdf://glue", politics_graph)
        q = RDFQuery.from_text("SELECT ?id WHERE { ?x ttn:position ttn:headOfState . "
                               "?x ttn:twitterAccount ?id }")
        rows = source.execute(q)
        assert rows == [{"id": "fhollande"}]

    def test_execute_with_bindings_filters(self, politics_graph):
        source = RDFSource("rdf://glue", politics_graph)
        q = RDFQuery.from_text("SELECT ?x ?id WHERE { ?x ttn:twitterAccount ?id }")
        rows = source.execute(q, {"id": "mlepen"})
        assert len(rows) == 1 and rows[0]["x"].endswith("POL2")

    def test_a_flush_seeds_every_spelling_of_its_values(self):
        """A bound value matches whichever spelling the graph stores it
        under (5 and 5.0; a CURIE as a URI and as a literal), per binding,
        in one batch and one at a time alike."""
        from repro.rdf import Graph, Literal, URI, literal, triple

        graph = Graph("g", [triple("ttn:A", "ttn:rank", literal(5)),
                            triple("ttn:B", "ttn:rank", literal(5.0)),
                            triple("ttn:C", "ttn:rank", URI("seat:5")),
                            triple("ttn:D", "ttn:rank", Literal("seat:5")),
                            triple("ttn:E", "ttn:rank", literal(6))])
        source = RDFSource("rdf://g", graph)
        q = RDFQuery.from_text("SELECT ?x ?v WHERE { ?x ttn:rank ?v }")
        batch = [{"v": 5}, {"v": 5.0}, {"v": "seat:5"}, {"v": 7}, {}]
        answers = list(map(dict_rows, source.execute_batch(q, batch)))
        assert answers == [source.execute(q, bindings) for bindings in batch]
        local = [sorted(row["x"].rsplit("#", 1)[-1] for row in rows) for rows in answers]
        assert local == [["A", "B"], ["A", "B"], ["C", "D"], [], ["A", "B", "C", "D", "E"]]

    def test_entailment_option_exposes_implicit_triples(self, politics_graph, politics_schema):
        politics_graph.add_all(politics_schema.triples())
        source = RDFSource("rdf://glue", politics_graph, entailment=True)
        q = RDFQuery.from_text("SELECT ?x WHERE { ?x rdf:type ttn:person }")
        assert len(source.execute(q)) == 2

    def test_estimate_more_selective_with_bound_vars(self, politics_graph):
        source = RDFSource("rdf://glue", politics_graph)
        q = RDFQuery.from_text("SELECT ?x ?id WHERE { ?x ttn:twitterAccount ?id }")
        assert source.estimate(q, {"id"}) <= source.estimate(q, set())

    def test_wrong_query_type_rejected(self, politics_graph):
        source = RDFSource("rdf://glue", politics_graph)
        with pytest.raises(MixedQueryError):
            source.execute(SQLQuery(sql="SELECT 1 AS one"))

    def test_accepts(self, politics_graph):
        source = RDFSource("rdf://glue", politics_graph)
        assert source.accepts(RDFQuery.from_text("SELECT ?x WHERE { ?x ?p ?o }"))
        assert not source.accepts(SQLQuery(sql="SELECT 1 AS one"))


class TestSQLQueryAndSource:
    def test_output_columns_inferred_from_aliases(self):
        q = SQLQuery(sql="SELECT code AS dept, name, population AS pop FROM departments")
        assert q.output_variables() == {"dept", "name", "pop"}

    def test_placeholders_are_required_parameters(self):
        q = SQLQuery(sql="SELECT rate AS rate FROM unemployment WHERE dept_code = {dept}")
        assert q.required_parameters() == {"dept"}

    def test_execute_plain(self, small_database):
        source = RelationalSource("sql://insee", small_database)
        q = SQLQuery(sql="SELECT code AS dept, name AS name FROM departments")
        rows = source.execute(q)
        assert {"dept": "75", "name": "Paris"} in rows

    def test_execute_with_placeholder_binding(self, small_database):
        source = RelationalSource("sql://insee", small_database)
        q = SQLQuery(sql="SELECT rate AS rate FROM unemployment WHERE dept_code = {dept} "
                         "AND year = 2015")
        assert source.execute(q, {"dept": "75"}) == [{"rate": 8.2}]

    def test_missing_placeholder_raises(self, small_database):
        source = RelationalSource("sql://insee", small_database)
        q = SQLQuery(sql="SELECT rate AS rate FROM unemployment WHERE dept_code = {dept}")
        with pytest.raises(MixedQueryError):
            source.execute(q)

    def test_post_filter_on_output_bindings(self, small_database):
        source = RelationalSource("sql://insee", small_database)
        q = SQLQuery(sql="SELECT code AS dept, name AS name FROM departments")
        rows = source.execute(q, {"dept": "33"})
        assert rows == [{"dept": "33", "name": "Gironde"}]

    def test_sql_injection_of_quotes_is_escaped(self, small_database):
        source = RelationalSource("sql://insee", small_database)
        q = SQLQuery(sql="SELECT name AS name FROM departments WHERE name = {n}")
        assert source.execute(q, {"n": "O'Brien"}) == []

    def test_estimate_reflects_table_sizes(self, small_database):
        source = RelationalSource("sql://insee", small_database)
        big = SQLQuery(sql="SELECT rate AS rate FROM unemployment")
        small = SQLQuery(sql="SELECT rate AS rate FROM unemployment WHERE dept_code = {dept}")
        assert source.estimate(small) < source.estimate(big)

    def test_size(self, small_database):
        assert RelationalSource("sql://insee", small_database).size() == 7

    def test_outputs_are_the_executors_column_labels(self, small_database):
        source = RelationalSource("sql://insee", small_database)
        q = SQLQuery(sql="SELECT UPPER(name), code, population pop FROM departments "
                         "WHERE name <> '{x} from nowhere'")
        assert q.required_parameters() == set()
        assert q.output_variables() == {"UPPER(name)", "code", "pop"}
        assert set(source.execute(q)[0]) == q.output_variables()

    def test_declared_output_columns_win(self):
        q = SQLQuery(sql="SELECT code, name FROM departments", output_columns=("code",))
        assert q.output_variables() == {"code"}

    def test_unparsable_statement_fails_when_first_analysed(self):
        query = SQLQuery(sql="SELECT name FROM departments WHERE")  # building is free
        with pytest.raises(SQLParseError):
            query.output_variables()
        with pytest.raises(SQLParseError):
            query.required_parameters()

    def test_calls_parse_no_text(self, small_database, monkeypatch):
        import repro.relational.database as database_module
        import repro.relational.template as template_module

        parsed = []
        for module in (database_module, template_module):
            original = module.parse_sql
            monkeypatch.setattr(
                module, "parse_sql",
                lambda sql, original=original: parsed.append(sql) or original(sql))
        source = RelationalSource("sql://insee", small_database)
        sql = ("SELECT dept_code AS dept, rate AS parsed_at_most_once "
               "FROM unemployment WHERE dept_code = {dept}")
        query = SQLQuery(sql=sql)
        for dept in ("75", "33", "29", "zz", "75"):
            source.execute(query, {"dept": dept})
        source.execute_batch(query, [{"dept": "75"}, {"dept": "33"}])
        source.execute_batch(SQLQuery(sql=sql), [{"dept": "75", "rate": 8.2}])
        source.estimate(query, {"dept"})
        query.output_variables(), query.required_parameters()
        assert parsed == [sql]  # at the parent: once per statement run


class TestFullTextQueryAndSource:
    def test_output_and_required(self):
        q = FullTextQuery.create("entities.hashtags:{tag}",
                                 {"t": "text", "id": "user.screen_name"})
        assert q.output_variables() == {"t", "id"}
        assert q.required_parameters() == {"tag"}

    def test_execute_maps_fields(self, small_tweet_store):
        source = FullTextSource("solr://tweets", small_tweet_store)
        q = FullTextQuery.create("entities.hashtags:sia2016",
                                 {"t": "text", "id": "user.screen_name"})
        rows = source.execute(q)
        assert rows[0]["id"] == "fhollande"

    def test_execute_with_placeholder(self, small_tweet_store):
        source = FullTextSource("solr://tweets", small_tweet_store)
        q = FullTextQuery.create("user.screen_name:{id}", {"t": "text"})
        assert len(source.execute(q, {"id": "mlepen"})) == 1

    def test_multi_word_binding_is_quoted(self, small_tweet_store):
        source = FullTextSource("solr://tweets", small_tweet_store)
        q = FullTextQuery.create("text:{phrase}", {"id": "user.screen_name"})
        rows = source.execute(q, {"phrase": "solidarite nationale"})
        assert rows and rows[0]["id"] == "fhollande"

    def test_post_filter_on_output_bindings(self, small_tweet_store):
        source = FullTextSource("solr://tweets", small_tweet_store)
        q = FullTextQuery.create("*:*", {"t": "text", "id": "user.screen_name"})
        rows = source.execute(q, {"id": "fhollande"})
        assert len(rows) == 2

    def test_score_pseudo_field(self, small_tweet_store):
        source = FullTextSource("solr://tweets", small_tweet_store)
        q = FullTextQuery.create("text:solidarite", {"score": "_score", "id": "user.screen_name"})
        rows = source.execute(q)
        assert rows[0]["score"] > 0

    def test_limit_and_sort(self, small_tweet_store):
        source = FullTextSource("solr://tweets", small_tweet_store)
        q = FullTextQuery.create("user.screen_name:fhollande", {"rt": "retweet_count"},
                                 limit=1, sort_by="retweet_count")
        assert source.execute(q) == [{"rt": 469}]

    def test_estimate_shrinks_with_constants_and_limit(self, small_tweet_store):
        source = FullTextSource("solr://tweets", small_tweet_store)
        everything = FullTextQuery.create("*:*", {"t": "text"})
        constrained = FullTextQuery.create("entities.hashtags:sia2016", {"t": "text"}, limit=5)
        assert source.estimate(constrained) < source.estimate(everything)

    def test_wrong_query_type_rejected(self, small_tweet_store):
        source = FullTextSource("solr://tweets", small_tweet_store)
        with pytest.raises(MixedQueryError):
            source.execute(RDFQuery.from_text("SELECT ?x WHERE { ?x ?p ?o }"))


# ---------------------------------------------------------------------------
# Index-side binding pushdown: differential against an un-narrowed reference
# ---------------------------------------------------------------------------

_CORPUS = [
    {"id": "D01", "body": "Budget vote today in parliament", "title": "Budget",
     "author": "Alice", "tags": ["Red", "blue"], "count": 3},
    {"id": "d02", "body": "The budget of the budget committee", "title": "Committee",
     "author": "alice", "tags": ["red"], "count": 3},
    {"id": "D03", "body": "Farmers protest the budget", "title": "Protest",
     "author": "bob smith", "tags": ["x y", "AND"], "count": 7},
    {"id": "d04", "body": "Nothing about money here", "title": "Other",
     "author": "a:b", "tags": [], "count": 0},
    {"id": "D05", "body": "Budget budget budget", "title": "Budget",
     "author": 'say "hi"', "tags": ["blue"], "count": 7},
    {"id": "d06", "body": "Parliament votes", "title": "Vote",
     "author": "AND", "tags": ["or", "Red"], "count": 1},
    {"id": "D07", "body": "A quiet day for the budget", "title": "Quiet",
     "author": "OR", "tags": ["not"], "count": 1},
    {"id": "d08", "body": "Vote on the farm budget", "title": "Farm",
     "author": "NOT", "tags": ["TO"], "count": 5},
    {"id": "D09", "body": "Budget talks resume", "title": "Talks",
     "author": "TO", "tags": ["red", "RED"], "count": 5},
    {"id": "d10", "body": "The author of this one is a number", "title": "Number",
     "author": 42, "tags": ["blue"], "count": 42},
    {"id": "D11", "body": "The author of this one is a string of digits budget",
     "title": "Digits", "author": "42", "tags": ["Blue"], "count": 42},
    {"id": "d12", "body": "No author at all, but a budget", "title": "Anonymous",
     "tags": ["red"], "count": 2},
    {"id": "D13", "body": "Budget vote today in parliament", "title": "Budget",
     "author": "ALICE", "tags": "red", "count": 3},
    # keyword values that are not str: the index files them as str(v).lower()
    {"id": "d14", "body": "The budget by the numbers", "title": "Numbers",
     "author": True, "tags": [42, True, "blue"], "count": 4},
    {"id": "D15", "body": "One number for a tag, no budget", "title": "Tag",
     "author": "carol", "tags": 42, "count": 4},
    # a null is no value, alone or in a list: no keyword bucket files it
    {"id": "d16", "body": "A budget with a null tag", "title": "Null",
     "author": None, "tags": [None, "red"], "count": 6},
]

_OUTPUTS = {"a": "author", "g": "tags", "t": "title", "n": "count", "i": "id"}

#: (template, output fields): constant templates, a ``path:{var}`` clause
#: over an echoed keyword field (the disjunctive batch path; alone, scored,
#: and beside an OR) and a parameter in a text clause (one search per
#: distinct value).
_TEMPLATES = [
    ("*:*", _OUTPUTS),
    ("body:budget", {**_OUTPUTS, "s": "_score"}),
    ("body:budget OR body:vote", {"a": "author", "s": "_score", "i": "id"}),
    ("tags:red", _OUTPUTS),
    ("tags:{tag}", _OUTPUTS),
    ("body:budget tags:{tag}", {**_OUTPUTS, "s": "_score"}),
    ("(body:budget OR body:vote) AND tags:{tag}", {"g": "tags", "s": "_score", "i": "id"}),
    ("body:{word}", {"a": "author", "g": "tags", "s": "_score", "i": "id"}),
]

#: Values a ``{var}`` must carry as values, whatever they would lex as.
_HARD_VALUES = ["Anne Hollier", "budget vote", "x y", "http://a.b/c", "(x", 'say "hi"',
                "a:b", "*", "or", "{x}", 42]

_BINDING_VALUES = {
    # str bindings on keyword fields are pushed into the index ...
    "a": ["alice", "ALICE", "bob smith", "a:b", 'say "hi"', "AND", "or", "NOT", "TO",
          "42", "true", "nobody",
          # ... other types are not (they stay post-filtered only)
          42, True, None],
    "g": ["RED", "blue", "x y", "and", "absent", "42", "TRUE", "none", ("red", "RED"), 7],
    # a text field and a numeric field: never pushed
    "t": ["Budget", "budget", "Nowhere"],
    "n": [3, 7, "3"],
    "i": ["d01", "D02", "d99"],
    "tag": ["red", "blue", "AND", "missing", "42", "True", *_HARD_VALUES],
    "word": ["budget", "vote", "parliament", *_HARD_VALUES],
}

#: The field each template parameter is compared with.
_PARAMETER_PATHS = {"tag": "tags", "word": "body"}

def _diff_source(documents=_CORPUS):
    store = FullTextStore("diff", [
        FieldConfig("body", "text"),
        FieldConfig("title", "text"),
        FieldConfig("author", "keyword"),
        FieldConfig("tags", "keyword", multi_valued=True),
        FieldConfig("id", "keyword"),
        FieldConfig("count", "numeric"),
    ], default_field="body")
    store.add_all(documents)
    return FullTextSource("solr://diff", store)


def _clause_text(store, path, value):
    """``path:value`` as query text equivalent to binding ``value``, or None.

    What the lexer can carry as one word (or, on a text field, as one
    phrase) is filled in as written.  Any other value on a text field is
    spelled through its analysed tokens, which is all the index sees of
    it; on a keyword field there is no spelling.
    """
    text = str(value)
    spaced = any(ch.isspace() for ch in text)
    is_text = store.field_config(path).field_type == "text"
    if spaced and is_text and '"' not in text:
        return f'{path}:"{text}"'
    if not spaced and re.fullmatch(r'[^():"\[\]{}*]+', text):
        return f"{path}:{text}"
    if not is_text:
        return None
    tokens = store.analyzer.analyze(text).tokens
    if not tokens:
        return "NOT *:*"
    if spaced:
        return f'{path}:"{" ".join(tokens)}"'
    return " AND ".join(f"{path}:{token}" for token in tokens)


def _stored_keywords(hit, path):
    value = hit.get(path, [])
    return [str(v).lower() for v in (value if isinstance(value, list) else [value])]


def _reference(source, query, bindings):
    """The un-narrowed answer: search the template filled as text (or, for
    a value text cannot spell, every document filtered on its stored
    values), project every hit, then keep the rows the bindings accept."""
    store = source.store
    text, stored = query.query_template, []
    for name in re.findall(r"\{(\w+)\}", text):
        path = _PARAMETER_PATHS[name]
        clause = _clause_text(store, path, bindings[name])
        if clause is None:
            stored.append((path, str(bindings[name]).lower()))
            clause = "*:*"
        text = text.replace(f"{path}:{{{name}}}", clause)
    hits = store.search(text, limit=None if stored else query.limit,
                        sort_by=query.sort_by).hits
    for path, wanted in stored:
        hits = [hit for hit in hits if wanted in _stored_keywords(hit, path)]
    rows = []
    for hit in hits[:query.limit]:
        row = {}
        for variable, path in query.fields().items():
            value = hit.score if path == "_score" else hit.get(path)
            if isinstance(value, list):
                value = value[0] if len(value) == 1 else tuple(value)
            row[variable] = value
        rows.append(row)
    filters = [(k, v) for k, v in bindings.items()
               if k in query.output_variables() and k not in query.required_parameters()]
    return [r for r in rows if all(_loose_equal(r.get(k), v) for k, v in filters)]


def _make_query(template, fields, limit, sort_by):
    return FullTextQuery.create(template, fields, limit=limit, sort_by=sort_by)


def _binding(query, values):
    """Keep of ``values`` what the query can take; fill its placeholders."""
    known = query.output_variables() | query.required_parameters()
    binding = {k: v for k, v in values.items() if k in known}
    for parameter in query.required_parameters():
        binding.setdefault(parameter, _BINDING_VALUES[parameter][0])
    return binding


def _searched(source, call):
    """Run ``call`` and return (its result, the queries whose match set the
    store was asked for, as ASTs, and the keyword buckets read)."""
    store, sent, read = source.store, [], []
    matches, keyword_documents = store.matches, store.keyword_documents

    def match_spy(query):
        sent.append(parse_query(query) if isinstance(query, str) else query)
        return matches(query)

    def bucket_spy(field_name, key):
        read.append((field_name, key))
        return keyword_documents(field_name, key)

    store.matches, store.keyword_documents = match_spy, bucket_spy
    try:
        return call(), sent, read
    finally:
        del store.matches, store.keyword_documents


def _count_projections(monkeypatch) -> Counter:
    """Count, per document id, the value tuples the full-text wrapper
    projects from here on."""
    projected: Counter = Counter()
    make = fulltext_source._row_projector

    def counting(*args):
        project = make(*args)

        def counted(ranked):
            projected.update(doc_id for doc_id, _ in ranked)
            return project(ranked)

        return counted

    monkeypatch.setattr(fulltext_source, "_row_projector", counting)
    return projected


class TestFullTextBindingPushdownDifferential:
    @pytest.mark.parametrize("limit", [None, 2])
    @pytest.mark.parametrize("sort_by", [None, "count"])
    @pytest.mark.parametrize("template,fields", _TEMPLATES)
    def test_every_single_binding_matches_the_reference(self, template, fields,
                                                        limit, sort_by):
        source = _diff_source()
        query = _make_query(template, fields, limit, sort_by)
        known = query.output_variables() | query.required_parameters()
        for variable in known & set(_BINDING_VALUES):
            for value in _BINDING_VALUES[variable]:
                binding = _binding(query, {variable: value})
                assert source.execute(query, binding) == _reference(source, query, binding), \
                    (template, binding)
        assert source.execute(query, _binding(query, {})) == \
            _reference(source, query, _binding(query, {}))

    @pytest.mark.parametrize("limit", [None, 3])
    @pytest.mark.parametrize("sort_by", [None, "count"])
    @pytest.mark.parametrize("template,fields", _TEMPLATES)
    def test_batches_match_the_reference(self, template, fields, limit, sort_by):
        source = _diff_source()
        query = _make_query(template, fields, limit, sort_by)
        authors = _BINDING_VALUES["a"]
        batches = [
            # all-distinct ids, duplicates, mixed case of one id
            [{"a": v} for v in authors if isinstance(v, str)],
            [{"a": "alice"}, {"a": "ALICE"}, {"a": "alice"}, {"a": "TO"}, {"a": "alice"}],
            # one non-str binding in the batch: nothing may be narrowed by ``a``
            [{"a": "alice"}, {"a": 42}, {"a": None}, {"a": "42"}],
            # one binding without the variable: it must still see every hit
            [{"a": "alice"}, {}, {"g": "red"}],
            # two pushable variables, multi-valued field, a tuple binding
            [{"a": "alice", "g": "RED"}, {"a": "to", "g": "red"}, {"a": "AND", "g": "or"}],
            [{"g": ("red", "RED")}, {"g": "blue"}],
            # text / numeric outputs are never pushed
            [{"t": "Budget", "a": "alice"}, {"t": "budget", "a": "Alice"}, {"n": 3, "a": "ALICE"}],
            [{"i": "d01"}, {"i": "D02"}, {"i": "d99"}],
            # several placeholder values (where the template has one)
            [{"tag": tag, "word": word, "a": "alice"}
             for tag, word in zip(_BINDING_VALUES["tag"], _BINDING_VALUES["word"] * 2)],
            [{"tag": tag, "word": "budget"} for tag in _BINDING_VALUES["tag"]],
            # all str: an echoed ``tags:{tag}`` is pooled over the whole batch
            [{"tag": tag} for tag in _BINDING_VALUES["tag"] if isinstance(tag, str)],
        ]
        for raw in batches:
            batch = [_binding(query, values) for values in raw]
            expected = [_reference(source, query, b) for b in batch]
            assert list(map(dict_rows, source.execute_batch(query, batch))) == expected, \
                (template, batch)

    def test_str_binding_on_a_keyword_output_is_anded_into_the_query_as_ast(self):
        """The AND is the intersection of the template's match set (the
        parsed AST, evaluated once for the whole batch) with the binding's
        own keyword bucket, read under the key the store files it by."""
        source = _diff_source()
        query = _make_query("body:budget", _OUTPUTS, None, None)
        for value in ["ALICE", "bob smith", "a:b", 'say "hi"', "AND", "nobody"]:
            rows, sent, read = _searched(source, lambda: source.execute(query, {"a": value}))
            assert sent == [parse_query("body:budget")]
            assert read == [("author", value.lower())]
            assert rows == _reference(source, query, {"a": value})
        rows, sent, read = _searched(source, lambda: source.execute_batch(
            query, [{"a": "Alice"}, {"a": "TO"}, {"a": "alice"}]))
        assert sent == [parse_query("body:budget")]
        assert read == [("author", "alice"), ("author", "to"), ("author", "alice")]
        # A pooled ``path:{var}`` clause stays in the query, as one OR.
        pooled = _make_query("body:budget tags:{tag}", _OUTPUTS, None, None)
        _, sent, read = _searched(source, lambda: source.execute_batch(
            pooled, [{"tag": "Red"}, {"tag": "blue", "a": "alice"}]))
        assert sent == [BooleanQuery("AND", (
            parse_query("body:budget"),
            BooleanQuery("OR", (TermQuery("tags", "Red", exact=True),
                                TermQuery("tags", "blue", exact=True)))))]
        assert read == [("tags", "red"), ("tags", "blue"), ("author", "alice")]

    @pytest.mark.parametrize("binding", [
        {"a": 42}, {"a": True}, {"a": None},    # not str
        {"t": "Budget"},                         # a text field
        {"n": 3}, {"n": "3"},                    # a numeric field
        {"g": ("red", "RED")},                   # not str
    ])
    def test_what_must_not_be_pushed_is_not(self, binding):
        source = _diff_source()
        query = _make_query("body:budget", _OUTPUTS, None, None)
        rows, sent, read = _searched(source, lambda: source.execute(query, binding))
        assert sent == [parse_query("body:budget")]
        assert read == []
        assert rows == _reference(source, query, binding)

    def test_a_limited_query_is_never_narrowed(self):
        source = _diff_source()
        query = _make_query("body:budget", _OUTPUTS, 2, None)
        rows, sent, read = _searched(source, lambda: source.execute(query, {"a": "alice"}))
        assert sent == [parse_query("body:budget")] and read == []
        # top-2 then filter, not filter then top-2
        assert rows == _reference(source, query, {"a": "alice"})
        _, sent, read = _searched(source, lambda: source.execute_batch(
            query, [{"a": "alice"}, {"a": "to"}]))
        assert sent == [parse_query("body:budget")] and read == []

    def test_absent_binding_is_an_empty_answer(self):
        source = _diff_source()
        query = _make_query("*:*", _OUTPUTS, None, None)
        assert source.execute(query, {"a": "nobody"}) == []
        assert source.execute_batch(query, [{"a": "nobody"}, {"a": "no one"}]) == [[], []]

    def test_scores_survive_the_narrowing_bit_for_bit(self):
        source = _diff_source()
        query = _make_query("body:budget OR body:vote", {"a": "author", "s": "_score",
                                                         "i": "id"}, None, None)
        everything = {row["i"]: row["s"] for row in source.execute(query)}
        for author in ["alice", "TO", "bob smith"]:
            narrowed = source.execute(query, {"a": author})
            assert narrowed, author
            for row in narrowed:
                assert row["s"] == everything[row["i"]]

    # -- row order, not only content -----------------------------------------
    def _assert_batch_is_the_reference(self, source, query, batch):
        expected = [_reference(source, query, b) for b in batch]
        assert [source.execute(query, b) for b in batch] == expected
        assert list(map(dict_rows, source.execute_batch(query, batch))) == expected
        return expected

    def test_a_score_output_ranks_each_binding_as_the_reference(self):
        source = _diff_source()
        query = _make_query("body:budget OR body:vote",
                            {"a": "author", "g": "tags", "s": "_score", "i": "id"}, None, None)
        expected = self._assert_batch_is_the_reference(
            source, query, [{"g": "red"}, {"a": "alice"}, {}, {"g": "blue", "a": "ALICE"},
                            {"s": 1.0}])
        assert all(len(rows) > 1 for rows in expected[:3])
        scores = [row["s"] for row in expected[2]]
        assert scores == sorted(scores, reverse=True) and len(set(scores)) > 1

    _UNCOUNTED = [
        {"id": "U01", "body": "A budget nobody counted", "author": "alice", "tags": ["red"]},
        {"id": "u02", "body": "Another budget without a count", "author": "bob smith",
         "tags": ["blue", "red"], "count": None},
    ]

    @pytest.mark.parametrize("limit", [None, 2, 12])
    def test_sort_by_ranks_documents_missing_the_field_last(self, limit):
        source = _diff_source(_CORPUS + self._UNCOUNTED)
        fields = {"i": "id", "n": "count", "a": "author", "g": "tags"}
        query = _make_query("body:budget", fields, limit, "count")
        everything, = self._assert_batch_is_the_reference(source, query, [{}])
        counts = [row["n"] for row in source.execute(
            _make_query("body:budget", fields, None, "count"))]
        assert counts[-2:] == [None, None] and None not in counts[:-2]
        assert counts[:-2] == sorted(counts[:-2], reverse=True)
        assert [row["n"] for row in everything] == counts[:limit]
        self._assert_batch_is_the_reference(
            source, query, [{"a": "alice"}, {"g": "red"}, {"a": "bob smith"}, {"g": "blue"}])
        # Ascending, through the store's ranking the wrapper shares.
        ascending = [hit.document.doc_id for hit in source.store.search(
            "body:budget", limit=None, sort_by="count", descending=False)]
        assert ascending[-2:] == ["U01", "u02"]
        values = [source.store.get(doc_id).get("count") for doc_id in ascending[:-2]]
        assert values == sorted(values)

    def test_a_document_two_bindings_reach_is_in_both_answers(self, monkeypatch):
        source = _diff_source()
        query = _make_query("body:budget", _OUTPUTS, None, None)
        batch = [{"g": "red"}, {"g": "BLUE"}]
        self._assert_batch_is_the_reference(source, query, batch)
        projected = _count_projections(monkeypatch)
        red, blue = list(map(dict_rows, source.execute_batch(query, batch)))
        shared = [row["i"] for row in red if row in blue]
        assert shared == ["D01"]  # tags ["Red", "blue"]
        # Each binding projects the hits its own bucket leaves, and no other.
        assert projected == Counter(row["i"] for row in red + blue)

    def test_a_demo_flush_equals_one_call_per_binding(self, demo):
        """120 party-shaped bindings (every author, upper-cased, unknown)
        against ``text:<word>``: the batch answers, order included, what
        120 single-binding calls answer."""
        source = demo.instance.source(TWEETS_URI)
        query = FullTextQuery.create("text:france", {"t": "text", "id": "user.screen_name",
                                                     "rt": "retweet_count", "week": "week"})
        accounts = sorted(str(p.twitter_account) for p in demo.politicians)
        variants = accounts + [a.upper() for a in accounts] + ["nobody", "France"]
        batch = [{"id": v} for v in itertools.islice(itertools.cycle(variants), 120)]
        answer = list(map(dict_rows, source.execute_batch(query, batch)))
        assert answer == [source.execute(query, b) for b in batch]
        assert sum(map(len, answer)) > 100 and sum(1 for rows in answer if not rows) >= 2


_binding_strategy = st.fixed_dictionaries({}, optional={
    variable: st.sampled_from(values) for variable, values in _BINDING_VALUES.items()})


class TestFullTextBindingPushdownProperty:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(documents=st.lists(st.sampled_from(_CORPUS), min_size=1, max_size=len(_CORPUS),
                              unique_by=lambda d: d["id"]),
           template=st.sampled_from(_TEMPLATES),
           limit=st.sampled_from([None, 1, 3]),
           sort_by=st.sampled_from([None, "count"]),
           raw=st.lists(_binding_strategy, min_size=1, max_size=6))
    def test_execute_and_execute_batch_match_the_reference(self, documents, template,
                                                           limit, sort_by, raw):
        source = _diff_source(documents)
        query = _make_query(*template, limit, sort_by)
        batch = [_binding(query, values) for values in raw]
        expected = [_reference(source, query, b) for b in batch]
        assert [source.execute(query, b) for b in batch] == expected
        assert list(map(dict_rows, source.execute_batch(query, batch))) == expected


class TestFullTextProjectsOnlyWhatTheBindingCanAccept:
    def test_single_binding_projects_no_more_than_the_documents_carrying_both(
            self, demo, monkeypatch):
        """No clocks: count the hits handed to the projection.

        ``tweetContains(t, id, tag)`` with ``id`` bound used to score, sort
        and project every tweet carrying the hashtag and then drop all but
        the author's; the binding now reads its keyword bucket first.
        """
        source = demo.instance.source(TWEETS_URI)
        store = source.store
        hashtag, tagged = max(
            ((tag, store.term_documents("entities.hashtags", tag))
             for tag in {str(v).lower() for v in store.field_values("entities.hashtags")}),
            key=lambda pair: (len(pair[1]), pair[0]))
        author = str(store.get(min(tagged)).get("user.screen_name"))
        both = tagged & store.term_documents("user.screen_name", author)
        assert 0 < len(both) < len(tagged)

        projected = _count_projections(monkeypatch)
        query = FullTextQuery.create(f"entities.hashtags:{hashtag}",
                                     {"t": "text", "id": "user.screen_name"})
        rows = source.execute(query, {"id": author.upper()})
        assert len(rows) == len(both)
        assert projected == Counter(dict.fromkeys(both, 1))
        monkeypatch.undo()
        assert rows == [r for r in source.execute(query) if r["id"] == author]


class TestFullTextBatchBuildsEachHitOnce:
    """Counts, not clocks: a party-shaped flush — every author bound
    against ``text:soutien`` — costs one match set, no ``SearchHit``, one
    projection per row kept and one batch row per row returned (a
    binding's projected tuples are its batch).  A wrapper that searched
    (a scored ``SearchHit`` per hit), or built rows for hits it then
    dropped, fails a count."""

    FIELDS = {"t": "text", "id": "user.screen_name", "rt": "retweet_count", "week": "week"}

    @pytest.fixture(scope="class")
    def party(self):
        demo = build_demo_instance(DemoConfig(politicians=120, weeks=1,
                                              tweets_per_politician_per_week=2.0, seed=42))
        source = demo.instance.source(TWEETS_URI)
        source.store.add({"id": 1, "text": "soutien", "week": "2016-W01",
                          "user": {"screen_name": demo.politicians[0].twitter_account},
                          "entities": {"hashtags": ["EtatDurgence", "chomage"]}})
        return source, [{"id": p.twitter_account} for p in demo.politicians]

    @staticmethod
    def _counted(monkeypatch, source, query, batch):
        """``source.execute_batch(query, batch)``, and what it built."""
        counts: Counter = Counter()
        matches = fulltext_store.FullTextStore.matches

        def counted_matches(*args):
            counts["matches"] += 1
            return matches(*args)

        class CountedHit(fulltext_store.SearchHit):
            def __init__(self, *args, **kwargs):
                counts["SearchHit"] += 1
                super().__init__(*args, **kwargs)

        as_answer = fulltext_source.as_answer

        def counted_answer(columns, rows):
            counts["rows"] += len(rows)
            return as_answer(columns, rows)

        monkeypatch.setattr(fulltext_store.FullTextStore, "matches", counted_matches)
        monkeypatch.setattr(fulltext_store, "SearchHit", CountedHit)
        monkeypatch.setattr(fulltext_source, "as_answer", counted_answer)
        projected = _count_projections(monkeypatch)
        answer = list(map(dict_rows, source.execute_batch(query, batch)))
        monkeypatch.undo()
        return answer, counts, projected

    def test_a_party_flush(self, party, monkeypatch):
        source, batch = party
        query = FullTextQuery.create("text:soutien", self.FIELDS)
        assert len(batch) == 120
        expected = [source.execute(query, b) for b in batch]
        answer, counts, projected = self._counted(monkeypatch, source, query, batch)
        assert answer == expected
        rows = sum(map(len, answer))
        assert rows > 100
        assert counts["matches"] == 1
        assert counts["SearchHit"] == 0
        assert counts["rows"] == rows
        # One author per tweet: each document lands in one binding's rows.
        assert set(projected.values()) == {1} and sum(projected.values()) == rows

    def test_a_document_two_hashtags_share_is_in_both_answers(self, party, monkeypatch):
        source, _ = party
        query = FullTextQuery.create("text:soutien", {**self.FIELDS, "g": "entities.hashtags"})
        batch = [{"g": "etatdurgence"}, {"g": "CHOMAGE"}]
        expected = [source.execute(query, b) for b in batch]
        answer, counts, projected = self._counted(monkeypatch, source, query, batch)
        assert answer == expected
        first, second = answer
        assert [row["g"] for row in first if row in second] == [("EtatDurgence", "chomage")]
        assert counts["matches"] == 1 and counts["SearchHit"] == 0
        assert counts["rows"] == len(first) + len(second)
        # Projected by each binding that keeps it, and by none other.
        assert projected["1"] == 2 and sum(projected.values()) == len(first) + len(second)


class TestPinnedWrapperKeepsItsClass:
    """``pin()`` hands back the wrapper itself over a snapshot: a subclass
    keeps its overrides and what its constructor set, unpinned or pinned."""

    @staticmethod
    def _subclass(base):
        class Tagged(base):
            def derive_estimate(self, query, bound, values):
                return self.estimate(query, bound)

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.tag = "mine"

            def estimate(self, query, bound_variables=None):
                return 2.0

        return Tagged

    def _check(self, source, mutate):
        pinned = source.pin()
        assert type(pinned) is type(source) and pinned is not source
        assert pinned.tag == "mine" and pinned.estimate(None) == 2.0
        assert pinned.pinned_at == source.version()
        assert pinned.cache_token == source.cache_token
        assert source.pin() is pinned  # unchanged: the memoised pin, no snapshot
        mutate()
        again = source.pin()
        assert again is not pinned and type(again) is type(source)
        assert again.pinned_at == source.version() > pinned.pinned_at
        assert pinned.size() == source.size() - 1  # the old pin is immutable

    def test_rdf(self):
        from repro.rdf import Graph, triple

        graph = Graph("g")
        graph.add(triple("ttn:a", "ttn:p", "x"))
        source = self._subclass(RDFSource)("rdf://g", graph, entailment=True)
        self._check(source, lambda: graph.add(triple("ttn:b", "ttn:p", "y")))
        assert source.pin().entailment

    def test_relational(self):
        from repro.relational import Database

        database = Database("db")
        database.create_table_from_rows("t", [{"a": 1}])
        source = self._subclass(RelationalSource)("sql://db", database)
        self._check(source, lambda: database.execute("INSERT INTO t (a) VALUES (2)"))

    def test_fulltext(self):
        store = FullTextStore("s", fields=[FieldConfig("text", "text")],
                              default_field="text")
        store.add({"id": 1, "text": "one"})
        source = self._subclass(FullTextSource)("solr://s", store)
        self._check(source, lambda: store.add({"id": 2, "text": "two"}))

    def test_json(self):
        from repro.json.source import JSONSource
        from repro.json.store import JSONDocumentStore

        store = JSONDocumentStore("j")
        store.add({"id": 1, "a": "x"})
        source = self._subclass(JSONSource)("json://j", store)
        self._check(source, lambda: store.add({"id": 2, "a": "y"}))
        assert source.pin().matcher.store is source.pin().store
