"""Unit tests for the synthetic dataset generators and the demo instance."""

import pytest

from repro.datasets import (
    AGRICULTURE,
    DemoConfig,
    INSEE_URI,
    POLITICAL_GROUPS,
    STATE_OF_EMERGENCY,
    TWEETS_JSON_URI,
    TWEETS_URI,
    TweetGeneratorConfig,
    build_dbpedia_graph,
    build_demo_instance,
    build_elections_database,
    build_ign_graph,
    build_insee_database,
    figure2_example_tweet,
    generate_facebook_posts,
    generate_landscape,
    generate_parties,
    generate_politicians,
    generate_tweets,
)
from repro.errors import DatasetError
from repro.rdf import RDF_TYPE, uri


class TestPoliticians:
    def test_deterministic_generation(self):
        a = generate_politicians(count=20, seed=1)
        b = generate_politicians(count=20, seed=1)
        assert [p.politician_id for p in a] == [p.politician_id for p in b]
        assert [p.name for p in a] == [p.name for p in b]

    def test_different_seed_different_population(self):
        a = generate_politicians(count=20, seed=1)
        b = generate_politicians(count=20, seed=2)
        assert [p.name for p in a] != [p.name for p in b]

    def test_exactly_one_head_of_state(self):
        landscape = generate_landscape(count=30, seed=3)
        heads = [p for p in landscape.politicians if p.position == "headOfState"]
        assert len(heads) == 1
        assert landscape.head_of_state() == heads[0]

    def test_unique_names_and_ids(self):
        politicians = generate_politicians(count=50, seed=4)
        assert len({p.politician_id for p in politicians}) == 50
        assert len({p.name for p in politicians}) == 50

    def test_every_group_has_a_party(self):
        parties = generate_parties()
        assert {p.group for p in parties} == set(POLITICAL_GROUPS)

    def test_invalid_count_rejected(self):
        with pytest.raises(DatasetError):
            generate_politicians(count=0)

    def test_glue_graph_contains_politicians_and_parties(self):
        landscape = generate_landscape(count=10, seed=5)
        graph = landscape.graph
        politicians = graph.resources_of_type(uri("ttn:politician"))
        assert len(politicians) == 10
        assert len(graph.resources_of_type(uri("ttn:party"))) == len(landscape.parties)

    def test_glue_graph_contains_schema_triples(self):
        landscape = generate_landscape(count=5, seed=6)
        assert not landscape.schema.is_empty()
        from repro.rdf import triple

        assert triple("ttn:politician", "rdfs:subClassOf", "ttn:person") in landscape.graph

    def test_by_group_partitions_population(self):
        landscape = generate_landscape(count=25, seed=7)
        grouped = landscape.by_group()
        assert sum(len(v) for v in grouped.values()) == 25


class TestTweets:
    def test_deterministic(self):
        politicians = generate_politicians(count=5, seed=1)
        a = generate_tweets(politicians, TweetGeneratorConfig(seed=3))
        b = generate_tweets(politicians, TweetGeneratorConfig(seed=3))
        assert [t["id"] for t in a] == [t["id"] for t in b]

    def test_figure2_shape(self):
        politicians = generate_politicians(count=5, seed=1)
        tweets = generate_tweets(politicians, TweetGeneratorConfig(seed=3))
        tweet = tweets[0]
        assert {"id", "created_at", "text", "user", "retweet_count",
                "favorite_count", "entities"} <= set(tweet)
        assert "screen_name" in tweet["user"]
        assert isinstance(tweet["entities"]["hashtags"], list)

    def test_topic_hashtag_present(self):
        politicians = generate_politicians(count=10, seed=1)
        tweets = generate_tweets(politicians, TweetGeneratorConfig(topic=AGRICULTURE,
                                                                   weeks=2, seed=3))
        hashtags = {h for t in tweets for h in t["entities"]["hashtags"]}
        assert "SIA2016" in hashtags

    def test_weeks_span_configuration(self):
        politicians = generate_politicians(count=10, seed=1)
        tweets = generate_tweets(politicians, TweetGeneratorConfig(weeks=3, seed=3))
        assert len({t["week"] for t in tweets}) == 3

    def test_vocabulary_reflects_weekly_phase(self):
        politicians = generate_politicians(count=30, seed=1)
        config = TweetGeneratorConfig(topic=STATE_OF_EMERGENCY, weeks=4, seed=3,
                                      tweets_per_politician_per_week=4)
        tweets = generate_tweets(politicians, config)
        weeks = sorted({t["week"] for t in tweets})
        first_week_text = " ".join(t["text"] for t in tweets if t["week"] == weeks[0])
        last_week_text = " ".join(t["text"] for t in tweets if t["week"] == weeks[-1])
        assert first_week_text.count("hommage") > last_week_text.count("hommage")
        assert last_week_text.count("vigilance") > first_week_text.count("vigilance")

    def test_facebook_posts_shape(self):
        politicians = generate_politicians(count=5, seed=1)
        posts = generate_facebook_posts(politicians, posts_per_politician=2, seed=3)
        assert len(posts) == 10
        assert {"author", "message", "likes", "shares", "comments"} <= set(posts[0])

    def test_figure2_example_tweet_content(self):
        tweet = figure2_example_tweet()
        assert tweet["id"] == 464244242167342513
        assert tweet["entities"]["hashtags"] == ["SIA2016"]
        assert tweet["user"]["screen_name"] == "fhollande"

    def test_tweet_to_json_has_exact_figure2_shape(self):
        from repro.datasets import Tweet

        tweet = Tweet.from_record(figure2_example_tweet())
        document = tweet.to_json()
        assert set(document) == {"created_at", "id", "text", "user",
                                 "retweet_count", "favorite_count", "entities"}
        assert set(document["user"]) == {"id", "name", "screen_name",
                                         "description", "followers_count"}
        assert set(document["entities"]) == {"hashtags", "urls"}
        assert document == figure2_example_tweet()

    def test_tweet_record_round_trips_generator_metadata(self):
        from repro.datasets import Tweet, generate_tweet_objects

        politicians = generate_politicians(count=5, seed=1)
        tweet = generate_tweet_objects(politicians, TweetGeneratorConfig(seed=3))[0]
        record = tweet.record()
        assert {"week", "group", "party_id"} <= set(record)
        assert Tweet.from_record(record) == tweet
        # The native JSON shape keeps the metadata out.
        assert "week" not in tweet.to_json() and "group" not in tweet.to_json()


class TestRelationalSources:
    def test_insee_tables(self):
        db = build_insee_database(seed=1)
        assert set(db.table_names()) == {"agriculture_production", "departments",
                                         "open_datasets", "unemployment"}
        assert len(db.table("departments")) == 20

    def test_agriculture_production_2015_rows(self):
        db = build_insee_database(seed=1)
        rows = db.query("SELECT COUNT(*) AS n FROM agriculture_production WHERE year = 2015")
        assert rows[0]["n"] > 0

    def test_open_datasets_registry_points_to_real_tables(self):
        db = build_insee_database(seed=1)
        for row in db.query("SELECT table_name, source_uri FROM open_datasets"):
            if row["source_uri"] == "sql://insee":
                assert db.has_table(row["table_name"])

    def test_elections_shares_sum_to_100(self):
        politicians = generate_politicians(count=10, seed=1)
        db = build_elections_database(politicians, seed=2)
        rows = db.query("SELECT dept_code, round, SUM(share) AS total FROM results "
                        "GROUP BY dept_code, round")
        assert all(abs(r["total"] - 100.0) < 1.0 for r in rows)

    def test_candidates_reference_politicians(self):
        politicians = generate_politicians(count=10, seed=1)
        db = build_elections_database(politicians, seed=2)
        names = {r["candidate_name"] for r in db.query("SELECT candidate_name FROM candidates")}
        assert names == {p.name for p in politicians}


class TestRDFSources:
    def test_dbpedia_reuses_glue_uris(self):
        landscape = generate_landscape(count=10, seed=1)
        dbpedia = build_dbpedia_graph(landscape.politicians, seed=2)
        for politician in landscape.politicians[:3]:
            assert uri(politician.dbpedia_uri) in {t.subject for t in dbpedia}

    def test_ign_department_codes_match_insee(self):
        ign = build_ign_graph(seed=1)
        insee = build_insee_database(seed=1)
        codes_rdf = {t.obj.value for t in ign
                     if t.predicate.value.endswith("codeINSEE")}
        codes_sql = {r["code"] for r in insee.query("SELECT code FROM departments")}
        assert codes_rdf == codes_sql

    def test_ign_departments_typed(self):
        ign = build_ign_graph(seed=1)
        departements = [t for t in ign if t.predicate == RDF_TYPE
                        and t.obj.value.endswith("Departement")]
        assert len(departements) == 20

    def test_each_graph_is_built_as_one_batch(self):
        landscape = generate_landscape(count=10, seed=1)
        for graph in (landscape.graph, build_ign_graph(seed=1),
                      build_dbpedia_graph(landscape.politicians, seed=2)):
            assert graph.version == 1 and len(graph.journal) == 1, graph.name


class TestDemoInstance:
    def test_all_sources_registered(self, demo):
        uris = set(demo.instance.source_uris())
        assert uris == {TWEETS_URI, TWEETS_JSON_URI, INSEE_URI, "solr://facebook",
                        "sql://elections", "rdf://dbpedia", "rdf://ign"}

    def test_templates_registered(self, demo):
        assert "qG" in demo.instance.templates
        assert "tweetContains" in demo.instance.templates

    def test_head_of_state_has_tweets(self, demo):
        head = demo.head_of_state()
        store = demo.instance.source(TWEETS_URI).store
        assert store.search(f"user.screen_name:{head.twitter_account}", limit=None).total >= 1

    def test_claim_and_figure2_tweets_included(self, demo):
        store = demo.instance.source(TWEETS_URI).store
        assert store.search("entities.hashtags:sia2016", limit=None).total >= 1
        assert store.search("entities.hashtags:chomage", limit=None).total >= 1

    def test_build_is_deterministic(self):
        a = build_demo_instance(DemoConfig(politicians=8, weeks=2, seed=5))
        b = build_demo_instance(DemoConfig(politicians=8, weeks=2, seed=5))
        assert [t["id"] for t in a.tweets] == [t["id"] for t in b.tweets]
        assert len(a.instance.graph) == len(b.instance.graph)

    def test_statistics_report_every_source(self, demo):
        stats = demo.instance.size_summary()
        assert stats["glue_triples"] > 0
        assert all(size > 0 for size in stats["sources"].values())
