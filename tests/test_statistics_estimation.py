"""Estimation accuracy: q-error bounds of the statistics layer.

Each fixture builds a deliberately *skewed* dataset, computes the true
cardinality of a family of sub-queries, and asserts that the
digest-backed estimate stays within a q-error bound — so estimator
regressions fail loudly instead of silently degrading plans.

q-error is the symmetric ratio ``max(est/actual, actual/est)`` with
both sides floored at 1.
"""

import pytest

from repro.core import (
    FullTextQuery,
    JSONQuery,
    RDFQuery,
    SQLQuery,
    StatisticsCatalog,
)
from repro.fulltext.source import FullTextSource
from repro.json.source import JSONSource
from repro.rdf.source import RDFSource
from repro.relational.source import RelationalSource
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.rdf import Graph, triple
from repro.relational import Database
from repro.stats.cost import MAX_BIND_BATCH, MIN_BIND_BATCH

pytestmark = pytest.mark.optimizer


def q_error(estimate: float, actual: float) -> float:
    estimate = max(1.0, estimate)
    actual = max(1.0, actual)
    return max(estimate / actual, actual / estimate)


@pytest.fixture
def stats() -> StatisticsCatalog:
    return StatisticsCatalog()


# ---------------------------------------------------------------------------
# Relational: top-k equality + histogram ranges on a skewed column
# ---------------------------------------------------------------------------

class TestRelationalEstimates:
    @pytest.fixture
    def source(self) -> RelationalSource:
        db = Database("skewed")
        rows = []
        # 800 'politics' rows, 150 'sports', 50 spread over 10 rare topics;
        # prices are skewed low: 80% under 100, a long tail up to 1000.
        for i in range(1000):
            if i < 800:
                topic = "politics"
            elif i < 950:
                topic = "sports"
            else:
                topic = f"niche{i % 10}"
            price = (i % 100) + 1 if i < 800 else 100 + (i % 900)
            rows.append({"topic": topic, "price": price, "author": f"a{i % 120}"})
        db.create_table_from_rows("posts", rows)
        return RelationalSource("sql://skewed", db)

    def true_count(self, source, where: str) -> int:
        result = source.database.execute(f"SELECT topic FROM posts WHERE {where}")
        return len(result.rows)

    def test_equality_on_frequent_value_uses_topk(self, stats, source):
        query = SQLQuery("SELECT author AS author FROM posts WHERE topic = 'politics'")
        actual = self.true_count(source, "topic = 'politics'")
        estimate = stats.estimate(source, query)
        assert q_error(estimate, actual) <= 1.5
        # The legacy ad-hoc estimate (rows/10 per WHERE) was off by ~8x.
        assert q_error(source.estimate(query), actual) > 5.0

    def test_equality_on_rare_value(self, stats, source):
        query = SQLQuery("SELECT author AS author FROM posts WHERE topic = 'niche3'")
        actual = self.true_count(source, "topic = 'niche3'")
        estimate = stats.estimate(source, query)
        assert q_error(estimate, actual) <= 4.0

    def test_equality_on_absent_value_estimates_zero(self, stats, source):
        query = SQLQuery("SELECT author AS author FROM posts WHERE topic = 'absent'")
        assert stats.estimate(source, query) == 0.0

    @pytest.mark.parametrize("where", [
        "price < 50", "price < 100", "price >= 500", "price > 900",
    ])
    def test_range_predicates_use_histogram(self, stats, source, where):
        query = SQLQuery(f"SELECT author AS author FROM posts WHERE {where}")
        actual = self.true_count(source, where)
        estimate = stats.estimate(source, query)
        assert q_error(estimate, actual) <= 4.0

    def test_bound_join_key_divides_by_distinct(self, stats, source):
        query = SQLQuery("SELECT author AS author, topic AS topic FROM posts")
        unbound = stats.estimate(source, query)
        bound = stats.estimate(source, query, {"author"})
        assert unbound == 1000.0
        # 120 distinct authors -> about 8.3 rows per binding.
        assert q_error(bound, 1000 / 120) <= 1.5

    def test_unparseable_sql_falls_back_to_wrapper(self, stats, source):
        query = SQLQuery("SELECT author AS author FROM posts "
                         "WHERE topic = 'politics' OR topic = 'sports'")
        assert stats.estimate(source, query) == source.estimate(query)

    def test_keywords_inside_literals_are_not_syntax(self, stats, source):
        # The regex readers saw a table "paris", an OR and two conjuncts here.
        for text in ("from paris", "a or b", "rock and roll", "not in (x)"):
            query = SQLQuery(f"SELECT author AS author FROM posts WHERE topic = '{text}'")
            assert stats.estimate(source, query) == 0.0  # priced: no such topic
            assert source.estimate(query) == 100.0

    # [catalog, wrapper, catalog | author bound, wrapper | author bound,
    #  catalog | author = 'a7'] as the text-reading estimators of PR 14
    # returned them: reading the parsed statement must not move a plan.
    RECORDED = {
        "topic = 'politics'": [800.0, 100.0, 6.666666666666667, 10.0, 7.2],
        "topic = 'niche3'": [5.0, 100.0, 0.041666666666666664, 10.0, 0.045],
        "topic = 'absent'": [0.0, 100.0, 0.0, 10.0, 0.0],
        "price < 50": [397.64328657314627, 100.0, 3.313694054776219, 10.0,
                       3.5787895791583164],
        "price < 100": [764.9018036072144, 100.0, 6.374181696726787, 10.0,
                        6.8841162324649305],
        "price >= 500": [100.0, 100.0, 0.8333333333333334, 10.0, 0.9],
        "price > 900": [95.04609218436875, 100.0, 0.7920507682030729, 10.0,
                        0.8554148296593187],
        "topic = 'politics' OR topic = 'sports'": [100.0, 100.0, 10.0, 10.0, 10.0],
        "topic = {t}": [83.33333333333333, 10.0, 0.6944444444444443, 1.0,
                        0.7499999999999999],
        "price > {p} AND topic = 'sports'": [45.0, 10.0, 0.375, 1.0,
                                             0.40499999999999997],
    }

    @pytest.mark.parametrize("where", list(RECORDED))
    def test_estimates_equal_the_recorded_ones(self, stats, source, where):
        query = SQLQuery(f"SELECT author AS author FROM posts WHERE {where}")
        assert [stats.estimate(source, query), source.estimate(query),
                stats.estimate(source, query, {"author"}),
                source.estimate(query, {"author"}),
                stats.estimate(source, query, {"author"}, {"author": "a7"}),
                ] == pytest.approx(self.RECORDED[where])

    def test_demo_sql_atoms_estimate_as_recorded(self, demo):
        from repro.datasets.loader import INSEE_URI, fact_checking_query, qsia_json_query

        insee = demo.instance.source(INSEE_URI)
        recorded = {
            "unemployment": [8.0, 1.6, 8.0, 1.0, 8.0, 1.6],
            "datasetRegistry": [1.0, 1.0, 1.0, 1.0, 0.5, 1.0],
            "statistics": [8.0, 1.6, 8.0, 1.0, 8.0, 1.6],
        }
        for cmq in (qsia_json_query(demo), fact_checking_query(demo)):
            for atom in cmq.atoms:
                if not isinstance(atom.query, SQLQuery):
                    continue
                stats, query = StatisticsCatalog(), atom.query
                assert [stats.estimate(insee, query), insee.estimate(query),
                        stats.estimate(insee, query, {"dept"}, {"dept": "75"}),
                        insee.estimate(query, {"dept"}),
                        stats.estimate(insee, query, {"src"}),
                        insee.estimate(query, {"src", "tbl"}),
                        ] == pytest.approx(recorded[atom.name])


# ---------------------------------------------------------------------------
# RDF: star join over a skewed property
# ---------------------------------------------------------------------------

class TestRDFEstimates:
    @pytest.fixture
    def source(self) -> RDFSource:
        g = Graph("star")
        # 200 tweets; 160 by one account (skew), the rest spread over 40.
        for i in range(200):
            g.add(triple(f"ttn:T{i}", "rdf:type", "ttn:Tweet"))
            author = "ttn:U0" if i < 160 else f"ttn:U{1 + i % 40}"
            g.add(triple(f"ttn:T{i}", "ttn:postedBy", author))
            if i % 4 == 0:
                g.add(triple(f"ttn:T{i}", "ttn:hasTag", "ttn:Politics"))
        return RDFSource("rdf://star", g)

    def test_star_join_within_bound(self, stats, source):
        query = RDFQuery.from_text(
            "SELECT ?t ?a WHERE { ?t rdf:type ttn:Tweet . ?t ttn:postedBy ?a . "
            "?t ttn:hasTag ttn:Politics }")
        actual = len(source.execute(query))
        estimate = stats.estimate(source, query)
        assert actual == 50
        assert q_error(estimate, actual) <= 4.0

    def test_bound_join_variable_divides_by_distinct(self, stats, source):
        query = RDFQuery.from_text("SELECT ?t ?a WHERE { ?t ttn:postedBy ?a }")
        unbound = stats.estimate(source, query)
        bound = stats.estimate(source, query, {"a"})
        assert unbound == 200.0
        # 41 distinct authors -> about 5 rows per binding.
        assert q_error(bound, 200 / 41) <= 2.0

    def test_empty_pattern_estimates_zero(self, stats, source):
        query = RDFQuery.from_text("SELECT ?t WHERE { ?t ttn:never ?x }")
        assert stats.estimate(source, query) == 0.0


# ---------------------------------------------------------------------------
# Full-text: document frequencies of skewed terms
# ---------------------------------------------------------------------------

class TestFullTextEstimates:
    @pytest.fixture
    def source(self) -> FullTextSource:
        store = FullTextStore("posts", fields=[
            FieldConfig("text", "text"),
            FieldConfig("user.screen_name", "keyword"),
        ], default_field="text")
        for i in range(300):
            word = "election" if i < 240 else "budget"
            store.add({"id": i, "text": f"news about the {word} tonight",
                       "user": {"screen_name": f"u{i % 25}"}})
        return FullTextSource("solr://posts", store)

    def test_frequent_term_df_is_exact(self, stats, source):
        query = FullTextQuery.create("text:election", {"t": "text"})
        actual = source.store.count("text:election")
        assert actual == 240
        assert q_error(stats.estimate(source, query), actual) <= 1.2

    def test_conjunction_of_terms(self, stats, source):
        query = FullTextQuery.create("text:election text:budget", {"t": "text"})
        actual = source.store.count("text:election AND text:budget")
        estimate = stats.estimate(source, query)
        assert actual == 0
        assert estimate <= 1.0

    def test_keyword_field_distinct_counts(self, stats, source):
        query = FullTextQuery.create("*:*", {"id": "user.screen_name", "t": "text"})
        bound = stats.estimate(source, query, {"id"})
        # 25 distinct handles over 300 documents -> 12 per binding.
        assert q_error(bound, 300 / 25) <= 1.5

    def test_known_parameter_value_uses_exact_df(self, stats, source):
        query = FullTextQuery.create("user.screen_name:{id}",
                                     {"t": "text"})
        estimate = stats.estimate(source, query, {"id"}, values={"id": "u0"})
        actual = source.store.count("user.screen_name:u0")
        assert q_error(estimate, actual) <= 1.2

    #: atom -> per binding case of ``_DEMO_CASES``, (``derive_estimate``,
    #: ``FullTextSource.estimate``) as recorded at the parent of ISSUE 18,
    #: when both read the template's text: no plan may move.
    _DEMO_CASES = [(set(), {}), ({"id"}, {}), ({"id"}, {"id": "aduval3"}),
                   ({"tag"}, {"tag": "sia2016"}), ({"word"}, {"word": "chomage"}),
                   ({"id", "tag", "word"},
                    {"id": "aduval3", "tag": "sia2016", "word": "chomage"})]
    _DEMO_RECORDED = {
        "tweetContains template": [
            (32.666666666666664, 9.05), (1.8148148148148147, 1.0),
            (4.511970534069982, 1.0), (1.0, 9.05), (32.666666666666664, 9.05),
            (0.13812154696132597, 1.0)],
        "tweetMentions template": [
            (16.73109243697479, 9.05), (0.9295051353874884, 1.0),
            (2.3109243697478994, 1.0), (16.73109243697479, 9.05), (11.0, 9.05),
            (1.5193370165745856, 1.0)],
        "tweetContains": [
            (1.0, 9.05), (0.05555555555555555, 1.0), (0.13812154696132597, 1.0),
            (1.0, 9.05), (1.0, 9.05), (0.13812154696132597, 1.0)],
        "tweetMentions": [
            (44.0, 9.05), (2.4444444444444446, 1.0), (6.077348066298343, 1.0),
            (44.0, 9.05), (44.0, 9.05), (6.077348066298343, 1.0)],
        "claims": [
            (11.0, 9.05), (0.6111111111111112, 1.0), (1.5193370165745856, 1.0),
            (11.0, 9.05), (11.0, 9.05), (1.5193370165745856, 1.0)],
    }

    @pytest.mark.parametrize("name", list(_DEMO_RECORDED))
    def test_demo_fulltext_atoms_estimate_as_recorded(self, demo, name):
        from repro.datasets import qsia_query
        from repro.datasets.loader import (
            TWEETS_URI, fact_checking_query, party_vocabulary_query)
        queries = {f"{template} template": demo.instance.templates.get(template).query
                   for template in ("tweetContains", "tweetMentions")}
        for cmq in (qsia_query(demo), party_vocabulary_query(demo, "securite"),
                    fact_checking_query(demo)):
            queries.update((atom.name, atom.query) for atom in cmq.atoms
                           if isinstance(atom.query, FullTextQuery))
        source, query = demo.instance.source(TWEETS_URI), queries[name]
        for (bound, values), recorded in zip(self._DEMO_CASES, self._DEMO_RECORDED[name]):
            assert (source.derive_estimate(query, bound, values),
                    source.estimate(query, bound)) == pytest.approx(recorded), (bound, values)


# ---------------------------------------------------------------------------
# JSON: path-index presence and postings
# ---------------------------------------------------------------------------

#: (pattern, bound variables, known values, JSONSource.estimate,
#: StatisticsCatalog.estimate) captured at the parent of ISSUE 16, when two
#: estimators read a dataguide rebuilt from every document: the one
#: estimator over the path indexes must return the same numbers.
_DEMO_GOLDEN = [
    ('{ text: ?t, user.screen_name: ?id, entities.hashtags: "sia2016" }', ('id',), {}, 1.0, 1.0),
    ('{ text: ?t, user.screen_name: ?id, entities.hashtags: "sia2016" }', ('t',), {}, 1.0, 1.0),
    ('{ text: ?t, user.screen_name: ?id, entities.hashtags: "sia2016" }', (), {}, 1.0, 1.0),
    ('{ text: ?t, user.screen_name: ?id, entities.hashtags: {tag} }', ('id',), {}, 10.166666666666666, 10.166666666666666),
    ('{ text: ?t, user.screen_name: ?id, entities.hashtags: {tag} }', ('tag',), {'tag': 'sia2016'}, 24.333333333333332, 1.0),
    ('{ text: ?t, user.screen_name: ?id, entities.hashtags: {tag} }', ('tag',), {}, 24.333333333333332, 24.333333333333332),
    ('{ text: ?t, user.screen_name: ?id, entities.hashtags: {tag} }', ('t',), {}, 1.0, 1.0),
    ('{ text: ?t, user.screen_name: ?id, entities.hashtags: {tag} }', (), {}, 24.333333333333332, 24.333333333333332),
    ('{ text: ?t, user.screen_name: ?id, retweet_count: ?rt }', ('id',), {}, 10.166666666666666, 10.166666666666666),
    ('{ text: ?t, user.screen_name: ?id, retweet_count: ?rt }', ('rt',), {}, 2.0, 2.0),
    ('{ text: ?t, user.screen_name: ?id, retweet_count: ?rt }', ('t',), {}, 1.0, 1.0),
    ('{ text: ?t, user.screen_name: ?id, retweet_count: ?rt }', (), {}, 122.0, 122.0),
]
_FIXTURE_GOLDEN = [
    ('{ author: ?a, topic: "politics" }', ('a',), {}, 10.0, 10.0),
    ('{ author: ?a, topic: "politics" }', (), {}, 90.0, 90.0),
    ('{ author: {who}, likes: ?l }', ('l',), {}, 2.0, 2.0),
    ('{ author: {who}, likes: ?l }', ('who',), {'who': 'a3'}, 10.0, 10.0),
    ('{ author: {who}, likes: ?l }', ('who',), {}, 10.0, 10.0),
    ('{ author: {who}, likes: ?l }', (), {}, 10.0, 10.0),
    ('{ geo.lat: ?lat }', ('lat',), {}, 40.0, 40.0),
    ('{ geo.lat: ?lat }', (), {}, 40.0, 40.0),
    ('{ likes: ?l >= 50 }', ('l',), {}, 2.0, 2.0),
    ('{ likes: ?l >= 50 }', (), {}, 20.0, 20.0),
]
#: The fixture after an insert batch and an upsert batch.  One entry is not
#: the parent's: it counted the ten copies the upserts superseded in the
#: accelerator encoding (70.0 for the 60 rows of ``{ geo.lat: ?lat }``).
_WRITTEN_GOLDEN = [
    ('{ author: ?a, topic: "politics" }', ('a',), {}, 12.5, 12.5),
    ('{ author: ?a, topic: "politics" }', (), {}, 110.0, 110.0),
    ('{ author: {who}, likes: ?l }', ('l',), {}, 2.5, 2.5),
    ('{ author: {who}, likes: ?l }', ('who',), {'who': 'a3'}, 12.5, 23.0),
    ('{ author: {who}, likes: ?l }', ('who',), {}, 12.5, 12.5),
    ('{ author: {who}, likes: ?l }', (), {}, 12.5, 12.5),
    ('{ geo.lat: ?lat }', ('lat',), {}, 30.0, 30.0),
    ('{ geo.lat: ?lat }', (), {}, 60.0, 60.0),
    ('{ likes: ?l >= 50 }', ('l',), {}, 2.5, 2.5),
    ('{ likes: ?l >= 50 }', (), {}, 50.0, 50.0),
]


#: (class, atom, source) -> ``derive_estimate`` with nothing bound, then
#: with each formal bound (sorted), priced with the atom's constants; a
#: JSON atom then with each formal bound to a value of the first stored
#: tweet (counted off its bucket).  Recorded before the path indexes kept
#: 1-tuple buckets and a document count: no estimate, so no plan, moves.
_CLASS_ATOMS_RECORDED = {
    ('qsia', 'qG', '#glue'): [1.0, 0.041666666666666664],
    ('qsia', 'tweetContains', 'solr://tweets'): [1.0, 0.041666666666666664, 0.008130081300813009],
    ('dynamic', 'qG', '#glue'): [1.0, 0.041666666666666664],
    ('dynamic', 'tweetContains', 'solr://facebook'): [None, None, None, None],
    ('dynamic', 'tweetContains', 'solr://tweets'): [1.0, 0.041666666666666664, 0.008130081300813009, 1.0],
    ('qsia_json sia2016', 'qG', '#glue'): [1.0, 0.07692307692307693, 0.041666666666666664],
    ('qsia_json sia2016', 'tweetJson', 'json://tweets'): [1.0, 1.0, 1.0, 1.0, 1.0],
    ('qsia_json sia2016', 'unemployment', 'sql://insee'): [8.0, 8.0, 0.057971014492753624, 4.0],
    ('qsia_json etatdurgence', 'qG', '#glue'): [1.0, 0.07692307692307693, 0.041666666666666664],
    ('qsia_json etatdurgence', 'tweetJson', 'json://tweets'): [174.0, 15.041666666666666, 1.0, 13.0, 1.0],
    ('qsia_json etatdurgence', 'unemployment', 'sql://insee'): [8.0, 8.0, 0.057971014492753624, 4.0],
    ('qsia_json chomage', 'qG', '#glue'): [1.0, 0.07692307692307693, 0.041666666666666664],
    ('qsia_json chomage', 'tweetJson', 'json://tweets'): [44.0, 15.041666666666666, 1.0, 13.0, 1.0],
    ('qsia_json chomage', 'unemployment', 'sql://insee'): [8.0, 8.0, 0.057971014492753624, 4.0],
    ('party', 'qG', '#glue'): [24.0, 4.0, 1.0],
    ('party', 'tweetMentions', 'solr://tweets'): [24.0, 1.0, 2.4000000000000004, 0.1951219512195122, 6.0],
    ('factcheck', 'qG', '#glue'): [1.0, 0.07692307692307693, 0.041666666666666664],
    ('factcheck', 'claims', 'solr://tweets'): [17.0, 0.7083333333333334, 0.13821138211382114],
    ('factcheck', 'datasetRegistry', 'sql://insee'): [1.0, 0.5, 0.3333333333333333],
    ('factcheck', 'statistics', 'sql://elections'): [None, None, None, None],
    ('factcheck', 'statistics', 'sql://insee'): [8.0, 8.0, 0.057971014492753624, 4.0],
}


def _assert_golden(source: JSONSource, golden: list) -> None:
    for text, bound, values, wrapper, catalog in golden:
        query = JSONQuery.from_text(text)
        assert source.estimate(query, set(bound)) == pytest.approx(wrapper), text
        assert StatisticsCatalog().estimate(source, query, set(bound), values) \
            == pytest.approx(catalog), text


class TestJSONEstimates:
    @pytest.fixture
    def source(self) -> JSONSource:
        store = JSONDocumentStore("tweets")
        for i in range(120):
            doc = {"id": i, "author": f"a{i % 12}",
                   "likes": i % 60,
                   "topic": "politics" if i < 90 else "other"}
            if i % 3 == 0:
                doc["geo"] = {"lat": 48.8, "lon": 2.3}
            store.add(doc)
        return JSONSource("json://tweets", store)

    def test_constant_equality_is_exact(self, stats, source):
        query = JSONQuery.from_text('{ author: ?a, topic: "politics" }')
        actual = len(source.execute(query))
        assert q_error(stats.estimate(source, query), actual) <= 1.2

    def test_dataguide_coverage_for_partial_path(self, stats, source):
        query = JSONQuery.from_text("{ geo.lat: ?lat }")
        actual = len(source.execute(query))
        assert actual == 40
        assert q_error(stats.estimate(source, query), actual) <= 1.5

    def test_range_predicate_uses_index(self, stats, source):
        query = JSONQuery.from_text("{ likes: ?l >= 50 }")
        actual = len(source.execute(query))
        assert q_error(stats.estimate(source, query), actual) <= 2.0

    def test_known_parameter_value_uses_postings(self, stats, source):
        query = JSONQuery.from_text("{ author: {who}, likes: ?l }")
        estimate = stats.estimate(source, query, values={"who": "a3"})
        actual = len(source.execute(query, {"who": "a3"}))
        assert actual == 10
        assert q_error(estimate, actual) <= 1.5

    def test_an_estimate_counts_candidates_without_ranking_them(self, source, monkeypatch):
        from repro.json.matcher import TreePatternMatcher

        query = JSONQuery.from_text('{ author: "a3", topic: "politics", likes: ?l }')
        assert len(TreePatternMatcher(source.store).candidates(query.pattern)) == 8

        def ranked(self, doc_id):
            raise AssertionError(f"an estimate ranked candidate {doc_id}")

        monkeypatch.setattr(JSONDocumentStore, "insertion_rank", ranked)
        assert source.estimate(query) == 8.0

    def test_demo_atoms_estimate_as_at_the_parent(self):
        from repro.datasets import DemoConfig, build_demo_instance
        from repro.datasets.loader import TWEETS_JSON_URI

        demo = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))
        _assert_golden(demo.instance.source(TWEETS_JSON_URI), _DEMO_GOLDEN)

    def test_atoms_of_the_five_classes_estimate_as_recorded(self):
        from repro.datasets import DemoConfig, build_demo_instance, qsia_query
        from repro.datasets.loader import (
            TWEETS_JSON_URI, fact_checking_query, party_vocabulary_query, qsia_json_query)

        demo = build_demo_instance(DemoConfig(politicians=24, weeks=4, seed=42))
        instance = demo.instance
        classes = {"qsia": qsia_query(demo), "dynamic": instance.parse(
            'qSIA(t, id) :- qG(id), tweetContains(t, id, "sia2016")[dSolr]'),
            **{f"qsia_json {tag}": qsia_json_query(demo, tag)
               for tag in ("sia2016", "etatdurgence", "chomage")},
            "party": party_vocabulary_query(demo, "emploi"),
            "factcheck": fact_checking_query(demo)}
        first = instance.source(TWEETS_JSON_URI).store.documents()[0]
        known = {"id": first["user"]["screen_name"], "t": first["text"]}
        estimates = {}
        for label, cmq in classes.items():
            for atom in cmq.atoms:
                formals = sorted(atom.query.output_variables()
                                 | atom.query.required_parameters())
                for source in ([instance.source(atom.source)] if atom.source else
                               [s for s in instance.sources()
                                if s.model == atom.query.model]):
                    def price(bound, values):
                        return source.derive_estimate(atom.query, set(bound), values)
                    estimates[label, atom.name, source.uri] = (
                        [price((), dict(atom.constants))]
                        + [price((f,), dict(atom.constants)) for f in formals]
                        + [price((f,), {f: known[f]}) for f in formals
                           if source.model == "json"])
        assert estimates == _CLASS_ATOMS_RECORDED

    def test_fixture_atoms_estimate_as_at_the_parent(self, source):
        _assert_golden(source, _FIXTURE_GOLDEN)
        source.store.add_all(
            {"id": i, "author": f"a{i % 5}", "likes": 55, "topic": "politics",
             "geo": {"lat": 1.0}} for i in range(120, 150))
        source.store.add_all({"id": i, "author": "a3", "likes": 1, "topic": "other"}
                             for i in range(0, 30, 3))
        _assert_golden(source, _WRITTEN_GOLDEN)


# ---------------------------------------------------------------------------
# Feedback and the batch sizer
# ---------------------------------------------------------------------------

class TestFeedbackAndBatchSize:
    def test_feedback_overrides_estimates_and_bumps_revision(self, stats):
        db = Database("fb")
        db.create_table_from_rows("t", [{"a": i} for i in range(10)])
        source = RelationalSource("sql://fb", db)
        query = SQLQuery("SELECT a AS a FROM t")
        before = stats.revision
        assert stats.estimate(source, query) == 10.0
        assert stats.record(source, query, set(), 123.0)
        assert stats.revision > before
        assert stats.estimate(source, query) == 123.0

    def test_trusted_wrapper_estimate_wins(self, stats):
        db = Database("fb2")
        db.create_table_from_rows("t", [{"a": i} for i in range(10)])

        class Lying(RelationalSource):
            def derive_estimate(self, query, bound, values):
                return self.estimate(query, bound)

            def estimate(self, query, bound_variables=None):
                return 7.0

        assert stats.estimate(Lying("sql://lie", db),
                              SQLQuery("SELECT a AS a FROM t")) == 7.0

    def test_auto_batch_size_is_monotone(self):
        from repro.stats.cost import DEFAULT_COST_MODEL

        estimates = [0, 1, 2, 8, 64, 256, 1024, 4096, 4097, 10 ** 9, float("inf")]
        sizes = [DEFAULT_COST_MODEL.batch_size(e) for e in estimates]
        assert sizes[0] == sizes[1] == MAX_BIND_BATCH
        assert sizes[-1] == MIN_BIND_BATCH
        assert all(MIN_BIND_BATCH <= s <= MAX_BIND_BATCH for s in sizes)
        # Monotonically non-increasing: no discontinuity anywhere, and in
        # particular inf is not "cheaper" than a merely large estimate.
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
