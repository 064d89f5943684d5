"""Unit tests of the JSON document model: patterns, store, matcher, wrapper."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JSONQuery, JSONSource, MixedInstance, PlannerOptions
from repro.digest import JSONDataguide
from repro.errors import JSONError, MixedQueryError, ParseError
from repro.json import (
    JSONDocumentStore,
    Parameter,
    PatternLeaf,
    Predicate,
    TreePattern,
    TreePatternMatcher,
    leaf_values,
    match_document,
    parse_pattern,
    pattern_to_text,
)


@pytest.fixture
def tweet_docs():
    return [
        {"id": 1, "created_at": "2016-03-01T03:42:31",
         "text": "solidarité nationale #SIA2016", "retweet_count": 469,
         "favorite_count": 883,
         "user": {"id": 483794260, "name": "François Hollande",
                  "screen_name": "fhollande", "followers_count": 1502835},
         "entities": {"hashtags": ["SIA2016"], "urls": []}},
        {"id": 2, "created_at": "2015-11-20T09:00:00",
         "text": "l'état d'urgence sera prolongé", "retweet_count": 120,
         "favorite_count": 210,
         "user": {"id": 99, "name": "Marine LePen", "screen_name": "mlepen",
                  "followers_count": 900000},
         "entities": {"hashtags": ["EtatDurgence"], "urls": []}},
        {"id": 3, "created_at": "2016-03-02T10:00:00",
         "text": "au salon de l'agriculture #SIA2016", "retweet_count": 87,
         "favorite_count": 40,
         "user": {"id": 483794260, "name": "François Hollande",
                  "screen_name": "fhollande", "followers_count": 1502835},
         "entities": {"hashtags": ["SIA2016", "agriculture"], "urls": []}},
    ]


@pytest.fixture
def store(tweet_docs):
    s = JSONDocumentStore(name="tweets", text_path="text")
    s.add_all(tweet_docs)
    return s


class TestPatternParser:
    def test_round_trip_is_stable(self):
        texts = [
            '{ user.screen_name: ?id, entities.hashtags: "sia2016" }',
            '{ retweet_count: ?rt >= 100, text: ?t }',
            '{ entities.hashtags: {tag}, text: ?t }',
            '{ favorite_count: > 50, favorite_count: <= 900 }',
            '{ user.name: *, text: ?t != "spam" }',
            '{ active: true, deleted: null, score: 3.5 }',
        ]
        for text in texts:
            pattern = parse_pattern(text)
            assert parse_pattern(pattern_to_text(pattern)) == pattern

    def test_nested_and_dotted_forms_are_equivalent(self):
        dotted = parse_pattern('{ user.screen_name: ?id, entities.hashtags: "x" }')
        nested = parse_pattern(
            '{ user: { screen_name: ?id }, entities: { hashtags: "x" } }')
        assert dotted == nested

    def test_duplicate_paths_merge_predicates(self):
        pattern = parse_pattern('{ rt: > 10, rt: <= 100 }')
        assert len(pattern.leaves) == 1
        assert len(pattern.leaves[0].predicates) == 2

    def test_variables_and_parameters_collected(self):
        pattern = parse_pattern('{ text: ?t, entities.hashtags: {tag}, rt: ?r > 1 }')
        assert pattern.variables() == {"t", "r"}
        assert pattern.parameters() == {"tag"}

    def test_bareword_is_a_string_constant(self):
        pattern = parse_pattern("{ entities.hashtags: sia2016 }")
        assert pattern.leaves[0].predicates[0].value == "sia2016"

    def test_parameter_lookahead_distinguishes_nested_objects(self):
        parameter = parse_pattern("{ tag: {name} }")
        nested = parse_pattern("{ tag: { name: ?n } }")
        assert parameter.leaves[0].path == "tag"
        assert isinstance(parameter.leaves[0].predicates[0].value, Parameter)
        assert nested.leaves[0].path == "tag.name"

    def test_parse_errors(self):
        for bad in ["text: ?t", "{ text ?t }", "{ text: }", "{ text: ?t",
                    "{ text: ?t } trailing", "{ : ?t }", "{ a: ?x, a: ?y }"]:
            with pytest.raises((ParseError, JSONError)):
                parse_pattern(bad)

    def test_escaped_quotes_round_trip(self):
        pattern = parse_pattern('{ text: "dit \\"non\\"" }')
        assert pattern.leaves[0].predicates[0].value == 'dit "non"'
        assert parse_pattern(pattern.to_text()) == pattern


class TestLeafValues:
    def test_arrays_fan_out_at_any_level(self):
        doc = {"a": [{"b": [1, 2]}, {"b": [3]}], "c": {"d": "x"}}
        assert leaf_values(doc, "a.b") == [1, 2, 3]
        assert leaf_values(doc, "c.d") == ["x"]
        assert leaf_values(doc, "c.missing") == []


class TestMatcher:
    def test_index_and_naive_matching_agree(self, store, tweet_docs):
        matcher = TreePatternMatcher(store)
        patterns = [
            '{ user.screen_name: ?id, entities.hashtags: "sia2016", text: ?t }',
            '{ retweet_count: ?rt > 100 }',
            '{ entities.hashtags: ?tag }',
            '{ user.followers_count: >= 1000000, text: ?t }',
            '{ text: ?t != "spam" }',
            '{ user.name: * }',
        ]
        for text in patterns:
            pattern = parse_pattern(text)
            indexed = matcher.match(pattern)
            naive = [row for doc in store.documents()
                     for row in match_document(pattern, doc)]
            assert sorted(map(str, indexed)) == sorted(map(str, naive)), text

    def test_index_and_naive_agree_on_random_documents(self):
        rng = random.Random(17)
        store = JSONDocumentStore(name="random")
        tags = ["a", "b", "c", "d"]
        for i in range(200):
            store.add({
                "id": i,
                "n": rng.randrange(100),
                "tags": rng.sample(tags, k=rng.randrange(0, 3) + 1),
                "nested": {"flag": rng.choice([True, False]),
                           "label": rng.choice(["x", "y", "z"])},
            })
        matcher = TreePatternMatcher(store)
        patterns = [
            '{ tags: "b", n: ?n }',
            '{ n: >= 50, nested.flag: true }',
            '{ nested.label: ?l, tags: ?t }',
            '{ n: ?n < 10, tags: "a" }',
        ]
        for text in patterns:
            pattern = parse_pattern(text)
            indexed = matcher.match(pattern)
            naive = [row for doc in store.documents()
                     for row in match_document(pattern, doc)]
            assert sorted(map(str, indexed)) == sorted(map(str, naive)), text

    def test_interior_paths_match_like_the_naive_semantics(self, store):
        # "user" is an interior node: no value index, but presence pruning
        # through descendant-leaf indexes must keep index and naive agreeing.
        matcher = TreePatternMatcher(store)
        for text in ["{ user: *, text: ?t }", "{ entities: ?e }"]:
            pattern = parse_pattern(text)
            indexed = matcher.match(pattern)
            naive = [row for doc in store.documents()
                     for row in match_document(pattern, doc)]
            assert sorted(map(str, indexed)) == sorted(map(str, naive)), text
        assert len(matcher.match(parse_pattern("{ user: *, text: ?t }"))) == 3

    def test_candidate_pruning_is_a_superset_of_matches(self, store):
        matcher = TreePatternMatcher(store)
        pattern = parse_pattern('{ entities.hashtags: "sia2016" }')
        candidates = matcher.candidates(pattern)
        assert set(candidates) == {"1", "3"}
        assert matcher.selectivity(pattern) == pytest.approx(2 / 3)

    def test_string_equality_is_case_insensitive(self, store):
        matcher = TreePatternMatcher(store)
        upper = matcher.match(parse_pattern('{ entities.hashtags: "SIA2016" }'))
        lower = matcher.match(parse_pattern('{ entities.hashtags: "sia2016" }'))
        assert len(upper) == len(lower) == 2

    def test_pushdown_aligns_rows_to_the_bound_value(self, store):
        matcher = TreePatternMatcher(store)
        pattern = parse_pattern("{ user.screen_name: ?id, text: ?t }")
        rows = matcher.match(pattern, pushdown={"id": "FHOLLANDE"})
        assert rows and all(row["id"] == "FHOLLANDE" for row in rows)

    def test_parameters_fill_predicates(self, store):
        matcher = TreePatternMatcher(store)
        pattern = parse_pattern("{ entities.hashtags: {tag}, text: ?t }")
        rows = matcher.match(pattern, parameters={"tag": "etatdurgence"})
        assert [row["t"] for row in rows] == ["l'état d'urgence sera prolongé"]
        with pytest.raises(JSONError):
            matcher.match(pattern)  # unbound parameter

    def test_same_variable_at_two_paths_must_agree(self):
        pattern = TreePattern(leaves=(
            PatternLeaf(path="a", variable="v"),
            PatternLeaf(path="b", variable="v"),
        ))
        assert match_document(pattern, {"id": 1, "a": "x", "b": "x"}) == [{"v": "x"}]
        assert match_document(pattern, {"id": 1, "a": "x", "b": "y"}) == []


class TestStore:
    def test_add_replace_remove_maintain_indexes(self, store):
        assert len(store) == 3
        assert store.index_for("entities.hashtags").lookup_eq("agriculture") == {"3"}
        store.add({"id": 3, "text": "replaced", "entities": {"hashtags": ["other"]}})
        assert len(store) == 3
        assert store.index_for("entities.hashtags").lookup_eq("agriculture") == set()
        assert store.remove("3") and len(store) == 2
        assert "3" not in store.index_for("text").documents()

    def test_a_comparison_finds_a_number_filed_under_an_equal_bool(self):
        """1 and True share one posting key, whichever came first."""
        store = JSONDocumentStore()
        store.add({"id": 0, "a": True})
        store.add({"id": 1, "a": 1})
        assert store.index_for("a").lookup_cmp(">", 0) >= {"1"}
        greater = TreePattern(leaves=(PatternLeaf(path="a", variable=None,
                                                  predicates=(Predicate(op=">", value=0),)),))
        assert TreePatternMatcher(store).match(greater) == \
            match_document(greater, store.get("1")) == [{}]

    def test_missing_id_raises(self):
        with pytest.raises(JSONError):
            JSONDocumentStore().add({"text": "no id"})

    def test_documents_are_insulated_from_caller_mutation(self, tweet_docs):
        store = JSONDocumentStore()
        store.add(tweet_docs[0])
        tweet_docs[0]["user"]["screen_name"] = "mutated"
        assert store.get("1")["user"]["screen_name"] == "fhollande"

    def test_dataguide_rebuilds_after_updates(self, store):
        assert "user.screen_name" in store.dataguide().path_names()
        store.add({"id": 9, "brand_new": {"path": 1}})
        assert "brand_new.path" in store.dataguide().path_names()

    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("write"), st.lists(st.tuples(
            st.integers(min_value=0, max_value=6),
            st.dictionaries(st.sampled_from("abc"), st.recursive(
                st.one_of(st.none(), st.booleans(), st.integers(0, 3),
                          st.sampled_from(["x", "Y", 1.5])),
                lambda inner: st.one_of(
                    st.lists(inner, max_size=2),
                    st.dictionaries(st.sampled_from("abc"), inner, max_size=2)),
                max_leaves=6), max_size=3)), min_size=1, max_size=3)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=6)),
        st.tuples(st.just("snapshot"), st.none())), max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_dataguide_equals_a_build_over_the_documents(self, ops):
        """Read off the path indexes after any interleaving of inserts,
        upserts, removals and snapshots — never built from the documents —
        the dataguide is the one ``JSONDataguide.build`` would produce."""
        store = JSONDocumentStore("guide")
        readers = [store]
        for op, argument in ops:
            if op == "write":
                store.add_all({"id": i, **doc} for i, doc in argument)
            elif op == "remove":
                store.remove(str(argument))
            else:
                readers.append(store.snapshot())
        for view in readers:
            with view.reading() as reader:
                guide = reader.dataguide()
                built = JSONDataguide.build(reader.documents())
                assert guide.document_count == built.document_count == len(reader)
            assert guide.path_names() == built.path_names()
            for path, info in built.paths.items():
                assert guide.info(path).count == info.count
                assert guide.info(path).types == info.types
                assert guide.coverage(path) == built.coverage(path)


class TestJSONSourceWrapper:
    @pytest.fixture
    def source(self, store):
        return JSONSource("json://tweets", store)

    def test_execute_type_checks_the_query(self, source):
        from repro.core import FullTextQuery

        with pytest.raises(MixedQueryError):
            source.execute(FullTextQuery.create("*:*", {"t": "text"}))

    def test_execute_requires_bound_parameters(self, source):
        query = JSONQuery.from_text("{ entities.hashtags: {tag}, text: ?t }")
        with pytest.raises(MixedQueryError):
            source.execute(query)
        rows = source.execute(query, {"tag": "sia2016"})
        assert len(rows) == 2

    def test_constant_equality_sharpens_the_estimate(self, source, store):
        everything = JSONQuery.from_text("{ text: ?t }")
        tagged = JSONQuery.from_text('{ entities.hashtags: "sia2016", text: ?t }')
        assert source.estimate(everything) == float(len(store))
        assert source.estimate(tagged) == 2.0

    def test_dataguide_coverage_drives_rare_path_estimates(self, store):
        store.add({"id": 50, "rare": {"path": "only once"}})
        source = JSONSource("json://tweets", store)
        rare = JSONQuery.from_text("{ rare.path: ?x }")
        assert source.estimate(rare) == pytest.approx(
            store.dataguide().coverage("rare.path") * len(store))
        assert source.estimate(JSONQuery.from_text("{ never.seen: ?x }")) == 0.0
        # Interior nodes estimate through descendant presence.
        assert source.estimate(JSONQuery.from_text("{ rare: * }")) == 1.0

    def test_bound_variables_reduce_the_estimate(self, source):
        query = JSONQuery.from_text("{ user.screen_name: ?id, text: ?t }")
        unbound = source.estimate(query)
        bound = source.estimate(query, {"id"})
        assert bound < unbound

    def test_conjunctive_intersection_beats_per_leaf_minima(self, store):
        # hashtag sia2016 -> docs {1, 3}; screen_name mlepen -> doc {2}:
        # independently the minimum is 1, the intersection is empty.
        source = JSONSource("json://tweets", store)
        query = JSONQuery.from_text(
            '{ entities.hashtags: "sia2016", user.screen_name: "mlepen" }')
        assert source.estimate(query) == 0.0

    def test_limit_caps_execution_and_estimate(self, source):
        query = JSONQuery.from_text("{ text: ?t }", limit=1)
        assert len(source.execute(query)) == 1
        assert source.estimate(query) == 1.0


class TestJSONModelInMiniInstance:
    @pytest.fixture
    def instance(self, politics_graph, store):
        inst = MixedInstance(graph=politics_graph, name="mini-json")
        inst.register_json("json://tweets", store)
        return inst

    def test_bind_join_through_the_glue_graph(self, instance):
        cmq = (instance.builder("qSIA", head=["t", "id"])
               .graph("SELECT ?id WHERE { ?x ttn:position ttn:headOfState . "
                      "?x ttn:twitterAccount ?id }")
               .json("tweetJson", source="json://tweets",
                     pattern='{ text: ?t, user.screen_name: ?id, '
                             'entities.hashtags: "sia2016" }')
               .build())
        plan = instance.plan(cmq)
        assert [s.mode for s in plan.steps] == ["materialize", "bind"]
        result = instance.execute(cmq)
        assert set(result.column("id")) == {"fhollande"}
        assert len(result) == 2

    def test_materialize_mode_gives_identical_answers(self, instance):
        cmq = (instance.builder("q", head=["t", "id"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .json("docs", source="json://tweets",
                     pattern="{ text: ?t, user.screen_name: ?id }")
               .build())
        fast = instance.execute(cmq)
        naive = instance.execute(cmq, options=PlannerOptions(cost_based=False))
        assert sorted(map(str, fast.rows)) == sorted(map(str, naive.rows))
        assert len(fast) == 3

    def test_free_source_variable_fans_out_to_document_sources(self, instance):
        cmq = (instance.builder("q", head=["t", "d"])
               .json("anyDocs", source_variable="d",
                     pattern='{ text: ?t, entities.hashtags: "etatdurgence" }')
               .build())
        result = instance.execute(cmq)
        assert len(result) == 1
        assert result.rows[0]["d"] == "json://tweets"

    def test_range_predicate_inside_a_mixed_plan(self, instance):
        cmq = (instance.builder("q", head=["id", "rt"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .json("popular", source="json://tweets",
                     pattern="{ user.screen_name: ?id, retweet_count: ?rt >= 100 }")
               .build())
        result = instance.execute(cmq)
        assert {(row["id"], row["rt"]) for row in result} == {
            ("fhollande", 469), ("mlepen", 120)}

    def test_statistics_count_the_json_source(self, instance):
        stats = instance.size_summary()
        assert stats["sources"]["json://tweets"] == 3
