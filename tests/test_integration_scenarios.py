"""Integration tests reproducing the paper's demonstration scenarios (E1–E7)."""

import pytest

from repro.analytics import (
    PMIVocabularyAnalyzer,
    per_group_influential,
    vocabulary_drift,
    weekly_tag_clouds,
)
from repro.baselines import RDFWarehouse, naive_options
from repro.core import PlannerOptions
from repro.datasets import (
    INSEE_URI,
    TWEETS_JSON_URI,
    TWEETS_URI,
    fact_checking_query,
    party_vocabulary_query,
    qsia_json_query,
    qsia_query,
)
from repro.digest import JSONDataguide


class TestE1MixedInstance:
    def test_instance_spans_four_data_models(self, demo):
        models = {source.model for source in demo.instance.sources()}
        assert models == {"rdf", "relational", "fulltext", "json"}

    def test_textual_cmq_round_trip(self, demo):
        cmq = demo.instance.parse(
            'qSIA(t, id) :- qG(id), tweetContains(t, id, "sia2016")[solr://tweets]'
        )
        result = demo.instance.execute(cmq)
        assert len(result) >= 1
        assert all("#SIA2016" in row["t"] or "sia2016" in row["t"].lower() for row in result)


class TestE2TweetIngestion:
    def test_figure2_tweet_searchable_by_every_indexed_field(self, demo):
        store = demo.instance.source(TWEETS_URI).store
        head = demo.head_of_state()
        assert store.search("entities.hashtags:sia2016", limit=None).total >= 1
        assert store.search(f"user.screen_name:{head.twitter_account}", limit=None).total >= 1
        assert store.search("retweet_count:[469 TO 469]", limit=None).total >= 1

    def test_dataguide_covers_figure2_paths(self, demo):
        store = demo.instance.source(TWEETS_URI).store
        guide = JSONDataguide.build(store.documents())
        paths = set(guide.path_names())
        assert {"created_at", "id", "text", "user.id", "user.name", "user.screen_name",
                "user.followers_count", "retweet_count", "favorite_count",
                "entities.hashtags"} <= paths


class TestE3Figure3TagClouds:
    @pytest.fixture(scope="class")
    def weekly(self, demo):
        result = demo.instance.execute(party_vocabulary_query(demo, "urgence"), limit=None)
        analyzer = PMIVocabularyAnalyzer(min_group_count=1, min_corpus_count=2)
        return analyzer.analyze_weekly(
            (row["week"], row["group"], row["t"]) for row in result.rows
        )

    def test_four_weeks_of_vocabularies(self, weekly):
        assert len(weekly) == 4

    def test_tag_clouds_have_colored_group_entries(self, weekly):
        clouds = weekly_tag_clouds(weekly)
        assert len(clouds) == 4
        assert all(cloud.entries for cloud in clouds)
        groups = set().union(*(cloud.groups() for cloud in clouds))
        assert len(groups) >= 3

    def test_discourse_drift_across_weeks(self, weekly):
        # The paper's narrative: the vocabulary changes from factual to
        # institutional to critical — weekly top terms should not be stable.
        drifts = vocabulary_drift(weekly, top_k=8)
        assert drifts
        average_jaccard = sum(d.jaccard for d in drifts) / len(drifts)
        assert average_jaccard < 0.6

    def test_phase_terms_appear_in_matching_weeks(self, weekly):
        weeks = sorted(weekly)
        first_terms = {t.term for vocab in weekly[weeks[0]].values() for t in vocab.top(15)}
        third_terms = {t.term for vocab in weekly[weeks[2]].values() for t in vocab.top(15)}
        assert any(term.startswith(("hommage", "victime", "deuil", "solidarit"))
                   for term in first_terms)
        assert any(term.startswith(("abus", "exce", "risque", "perquisition", "libert"))
                   for term in third_terms)


class TestE4QSIAScenario:
    def test_qsia_returns_head_of_state_tweets_only(self, demo):
        result = demo.instance.execute(qsia_query(demo))
        head = demo.head_of_state()
        assert len(result) >= 1
        assert set(result.column("id")) == {head.twitter_account}

    def test_qsia_answers_identical_across_plans(self, demo):
        query = qsia_query(demo)
        reference = None
        for options in (PlannerOptions(), naive_options()):
            rows = {tuple(sorted(r.items())) for r in demo.instance.execute(query, options=options)}
            if reference is None:
                reference = rows
            assert rows == reference

    def test_a_free_source_variable_probes_more_sources_for_the_same_tweets(self, demo):
        cold = PlannerOptions(result_cache=False)
        fixed = demo.instance.execute(qsia_query(demo), options=cold)
        dynamic = demo.instance.execute(demo.instance.parse(
            'qSIA(t, id) :- qG(id), tweetContains(t, id, "sia2016")[dSolr]'), options=cold)
        assert set(dynamic.column("t")) == set(fixed.column("t"))
        assert len(dynamic.trace.calls) > len(fixed.trace.calls)

    def test_qsia_warehouse_equivalence(self, demo):
        query = qsia_query(demo)
        warehouse = RDFWarehouse(demo.instance)
        warehouse.export()
        mediator_rows = {tuple(sorted(r.items())) for r in demo.instance.execute(query)}
        warehouse_rows = {tuple(sorted(r.items())) for r in warehouse.execute(query)}
        assert mediator_rows == warehouse_rows


class TestE6FactChecking:
    def test_fact_checking_joins_claims_to_insee_statistics(self, demo):
        result = demo.instance.execute(fact_checking_query(demo, "chomage"))
        assert len(result) >= 1
        assert all(row["src"] == INSEE_URI for row in result)
        head_department = demo.head_of_state().birth_department
        assert set(result.column("dept")) == {head_department}
        assert all(isinstance(row["rate"], float) for row in result)

    def test_dynamic_source_discovery_used(self, demo):
        query = fact_checking_query(demo, "chomage")
        assert query.uses_dynamic_sources()
        result = demo.instance.execute(query)
        assert result.trace.calls_to(INSEE_URI) >= 2  # registry + discovered statistics


class TestE7PartyVocabulary:
    def test_vocabularies_differ_across_groups(self, demo):
        result = demo.instance.execute(party_vocabulary_query(demo, "urgence"), limit=None)
        analyzer = PMIVocabularyAnalyzer(min_group_count=2, min_corpus_count=2)
        vocabularies = analyzer.analyze((row["group"], row["t"]) for row in result.rows)
        assert len(vocabularies) >= 3
        tops = {group: tuple(t.term for t in vocab.top(5))
                for group, vocab in vocabularies.items() if vocab.terms}
        assert len(set(tops.values())) > 1

    def test_influential_tweets_ranked_by_engagement(self, demo):
        result = demo.instance.execute(party_vocabulary_query(demo, "urgence"), limit=None)
        records = [{"text": r["t"], "author": r["id"], "group": r["group"],
                    "retweet_count": r["rt"]} for r in result.rows]
        by_group = per_group_influential(records, top_per_group=3)
        for tweets in by_group.values():
            retweet_counts = [t.retweets for t in tweets]
            assert retweet_counts == sorted(retweet_counts, reverse=True)


class TestE5KeywordSearch:
    def test_keyword_search_regenerates_qsia(self, demo):
        outcome = demo.instance.keyword_query(["head of state", "SIA2016"])
        assert outcome.best is not None
        assert outcome.result is not None and len(outcome.result) >= 1
        # The generated CMQ reaches the tweets — through the glue + Solr
        # bridge or directly through the native JSON document source.
        sources = {atom.source for atom in outcome.best.query.atoms}
        assert sources & {TWEETS_URI, TWEETS_JSON_URI}
        # And its answer contains the same head-of-state SIA2016 tweet qSIA finds.
        qsia_texts = set(demo.instance.execute(qsia_query(demo)).column("t"))
        keyword_texts = {value for row in outcome.result.rows for value in row.values()
                         if isinstance(value, str)}
        assert qsia_texts & keyword_texts

    def test_keyword_search_reaches_json_source(self, demo):
        # The JSON store indexes every dotted path, so a hashtag keyword has
        # a candidate route through the native document source too.
        outcome = demo.instance.keyword_query(["SIA2016"])
        assert outcome.result is not None and len(outcome.result) >= 1
        candidate_sources = {atom.source for candidate in outcome.candidates
                             for atom in candidate.query.atoms}
        assert TWEETS_JSON_URI in candidate_sources or TWEETS_URI in candidate_sources

    def test_keyword_search_across_relational_and_rdf(self, demo):
        outcome = demo.instance.keyword_query(["Gironde"])
        assert outcome.result is not None and len(outcome.result) >= 1
        # The keyword hits both the IGN RDF source and the INSEE table; every
        # retained candidate targets one of them through its "name" position.
        hit_positions = {node.position for candidate in outcome.candidates
                         for node in candidate.path}
        assert hit_positions & {"nom", "name"}
        candidate_sources = {atom.source for candidate in outcome.candidates
                             for atom in candidate.query.atoms}
        assert {"rdf://ign", INSEE_URI} & candidate_sources

    def test_a_keyword_pair_joins_a_department_to_its_statistics(self, demo):
        outcome = demo.instance.keyword_query(["Gironde", "unemployment"])
        # IGN's department name joins INSEE's statistics on the department code.
        assert {atom.source for atom in outcome.best.query.atoms} == {"rdf://ign", INSEE_URI}


class TestE8JSONTreePatterns:
    """The JSON document model as a first-class CMQ source."""

    def test_json_store_holds_figure2_shaped_documents(self, demo):
        store = demo.instance.source(TWEETS_JSON_URI).store
        # The store replaces on id, so distinct ids is the right yardstick.
        assert len(store) == len({tweet["id"] for tweet in demo.tweets})
        paths = set(store.paths())
        assert {"created_at", "id", "text", "user.screen_name", "user.name",
                "user.followers_count", "retweet_count", "favorite_count",
                "entities.hashtags"} <= paths
        # Native shape only: the flattened-path metadata stays out.
        assert "group" not in paths and "week" not in paths

    def test_three_model_mix_plans_and_executes(self, demo):
        query = qsia_json_query(demo)
        models = {type(atom.query).__name__ for atom in query.atoms}
        assert models == {"RDFQuery", "JSONQuery", "SQLQuery"}
        result = demo.instance.execute(query)
        head = demo.head_of_state()
        assert len(result) >= 1
        assert set(result.column("id")) == {head.twitter_account}
        assert set(result.column("dept")) == {head.birth_department}
        assert all(isinstance(row["rate"], float) for row in result)
        assert all("sia2016" in row["t"].lower() for row in result)

    def test_json_atom_runs_in_bind_and_materialize_modes(self, demo):
        query = qsia_json_query(demo)
        plan = demo.instance.plan(query)
        json_step = next(s for s in plan.steps if s.atom.name == "tweetJson")
        assert json_step.mode == "bind"
        materialized = demo.instance.plan(query, naive_options())
        json_step = next(s for s in materialized.steps if s.atom.name == "tweetJson")
        assert json_step.mode == "materialize"
        fast = demo.instance.execute(query)
        naive = demo.instance.execute(query, options=naive_options())
        assert sorted(map(str, fast.rows)) == sorted(map(str, naive.rows))

    def test_textual_cmq_with_free_document_source_variable(self, demo):
        # [dTweets] is a free source variable: the JSON atom fans out to
        # every document source of the instance and binds dTweets to the
        # URI that answered.
        cmq = demo.instance.parse(
            'qTag(t, id, dTweets) :- qG(id), tweetJson(t, id, "sia2016")[dTweets]'
        )
        result = demo.instance.execute(cmq)
        assert len(result) >= 1
        assert set(result.column("dTweets")) == {TWEETS_JSON_URI}
        assert set(result.column("id")) == {demo.head_of_state().twitter_account}

    def test_json_selectivity_estimates_guide_the_planner(self, demo):
        source = demo.instance.source(TWEETS_JSON_URI)
        from repro.core import JSONQuery

        everything = JSONQuery.from_text("{ text: ?t }")
        tagged = JSONQuery.from_text('{ text: ?t, entities.hashtags: "sia2016" }')
        assert source.estimate(tagged) < source.estimate(everything)
        assert source.estimate(everything) == float(len(source.store))
        # Dataguide-driven: a path the collection never exhibits is free.
        missing = JSONQuery.from_text("{ nonexistent.path: ?x }")
        assert source.estimate(missing) == 0.0

    def test_json_source_digest_in_catalog(self, demo, demo_catalog):
        digest = demo_catalog.digest(TWEETS_JSON_URI)
        assert digest.model == "json"
        assert digest.metadata["documents"] == len({t["id"] for t in demo.tweets})
        positions = {node.position for node in digest.nodes}
        assert "entities.hashtags" in positions and "user.screen_name" in positions
