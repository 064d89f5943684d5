"""Assembly of the full demonstration mixed instance.

:func:`build_demo_instance` builds the synthetic counterpart of the
paper's demonstration dataset (§3): a glue RDF graph about French
politicians, two Solr-like stores (tweets and Facebook posts), a native
JSON document store (the same tweets in Figure 2 shape, queried with tree
patterns), the INSEE-like and elections relational databases and two
external RDF sources (DBPedia-like and IGN-like), all registered in one
:class:`~repro.core.instance.MixedInstance` together with the atom
templates used by the textual CMQ syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.instance import MixedInstance
from repro.datasets.insee import build_elections_database, build_insee_database
from repro.datasets.politicians import PoliticalLandscape, generate_landscape
from repro.datasets.rdf_sources import build_dbpedia_graph, build_ign_graph
from repro.datasets.tweets import (
    Tweet,
    TweetGeneratorConfig,
    figure2_example_tweet,
    generate_facebook_posts,
    generate_tweet_objects,
)
from repro.datasets.vocabulary import AGRICULTURE, STATE_OF_EMERGENCY, TOPICS, Topic
from repro.fulltext.store import facebook_store, tweet_store
from repro.json.store import JSONDocumentStore
from repro.relational.database import Database

#: Canonical source URIs of the demonstration instance.
TWEETS_URI = "solr://tweets"
TWEETS_JSON_URI = "json://tweets"
FACEBOOK_URI = "solr://facebook"
INSEE_URI = "sql://insee"
ELECTIONS_URI = "sql://elections"
DBPEDIA_URI = "rdf://dbpedia"
IGN_URI = "rdf://ign"

#: Topics tweeted about beside the configured one (fewer weeks, half rate).
EXTRA_TOPICS = ("agriculture", "unemployment")
#: Facebook posts generated per politician.
FACEBOOK_POSTS_PER_POLITICIAN = 2


@dataclass
class DemoInstance:
    """The assembled demonstration instance plus handles to its pieces."""

    instance: MixedInstance
    landscape: PoliticalLandscape
    tweets: list[dict]
    facebook_posts: list[dict]
    insee: Database
    elections: Database
    topic: Topic

    @property
    def politicians(self):
        return self.landscape.politicians

    def head_of_state(self):
        """The politician holding the ``headOfState`` position."""
        return self.landscape.head_of_state()


@dataclass
class DemoConfig:
    """Size/content knobs of the demonstration instance."""

    politicians: int = 40
    weeks: int = 4
    tweets_per_politician_per_week: float = 3.0
    topic: Topic = field(default_factory=lambda: STATE_OF_EMERGENCY)
    seed: int = 42


def build_demo_instance(config: DemoConfig | None = None) -> DemoInstance:
    """Build and register every source of the demonstration mixed instance."""
    config = config or DemoConfig()
    landscape = generate_landscape(count=config.politicians, seed=config.seed)

    # -- full-text sources -------------------------------------------------
    tweet_objects = generate_tweet_objects(
        landscape.politicians,
        TweetGeneratorConfig(topic=config.topic, weeks=config.weeks,
                             tweets_per_politician_per_week=config.tweets_per_politician_per_week,
                             seed=config.seed + 1),
    )
    for extra in EXTRA_TOPICS:
        tweet_objects.extend(generate_tweet_objects(
            landscape.politicians,
            TweetGeneratorConfig(topic=TOPICS[extra], weeks=min(2, config.weeks),
                                 tweets_per_politician_per_week=max(
                                     1.0, config.tweets_per_politician_per_week / 2),
                                 seed=config.seed + 13),
        ))
    figure2 = figure2_example_tweet()
    head = landscape.head_of_state()
    # Attribute the Figure 2 tweet to the synthetic head of state so the
    # qSIA scenario joins it through the glue graph.
    figure2["user"]["screen_name"] = head.twitter_account
    figure2["user"]["name"] = head.name
    figure2["group"] = head.group
    tweet_objects.append(Tweet.from_record(figure2))
    # A guaranteed presidential claim about unemployment so the
    # fact-checking scenario (E6) always has something to check.
    tweet_objects.append(Tweet(
        tweet_id=464_244_999_000_000_001,
        created_at="2015-12-03T09:15:00",
        week="2015-W49",
        text=("Le chomage baisse dans tous les departements depuis trois "
              "trimestres, les chiffres le prouvent #chomage"),
        user_id=int(head.politician_id[3:]),
        user_name=head.name,
        screen_name=head.twitter_account,
        user_description=f"{head.position} - {head.group}",
        followers_count=head.followers,
        retweet_count=1250,
        favorite_count=2100,
        hashtags=("chomage",),
        group=head.group,
        party_id=head.party_id,
    ))
    tweets = [tweet.record() for tweet in tweet_objects]
    store = tweet_store()
    store.add_all(tweets)

    # -- JSON source -------------------------------------------------------
    # The same tweets as *native* JSON documents (the exact Figure 2 shape
    # produced by Tweet.to_json), queried with tree patterns rather than
    # through the flattened full-text index.
    json_store = JSONDocumentStore(name="tweets_json", id_field="id", text_path="text")
    json_store.add_all(tweet.to_json() for tweet in tweet_objects)

    posts = generate_facebook_posts(landscape.politicians, topic=config.topic,
                                    posts_per_politician=FACEBOOK_POSTS_PER_POLITICIAN,
                                    seed=config.seed + 2)
    fb_store = facebook_store()
    fb_store.add_all(posts)

    # -- relational sources ------------------------------------------------
    insee = build_insee_database(seed=config.seed + 3)
    elections = build_elections_database(landscape.politicians, seed=config.seed + 4)

    # -- RDF sources ---------------------------------------------------------
    dbpedia = build_dbpedia_graph(landscape.politicians, seed=config.seed + 5)
    ign_graph = build_ign_graph(seed=config.seed + 6)

    # -- assemble the mixed instance -----------------------------------------
    instance = MixedInstance(graph=landscape.graph, name="lemonde-demo",
                             schema=landscape.schema)
    instance.register_fulltext(TWEETS_URI, store,
                               description="tweets of French politicians (Solr-like)")
    instance.register_fulltext(FACEBOOK_URI, fb_store,
                               description="Facebook posts of French politicians (Solr-like)")
    instance.register_json(TWEETS_JSON_URI, json_store,
                           description="tweets as native JSON documents (tree patterns)")
    instance.register_relational(INSEE_URI, insee,
                                 description="INSEE statistics (SQL)")
    instance.register_relational(ELECTIONS_URI, elections,
                                 description="Ministry of Interior election results (SQL)")
    instance.register_rdf(DBPEDIA_URI, dbpedia, description="DBPedia extract (RDF)")
    instance.register_rdf(IGN_URI, ign_graph, description="IGN territory data (RDF)")

    register_demo_templates(instance)
    return DemoInstance(instance=instance, landscape=landscape, tweets=tweets,
                        facebook_posts=posts, insee=insee, elections=elections,
                        topic=config.topic)


def register_demo_templates(instance: MixedInstance) -> None:
    """Register the atom templates used by the textual CMQ examples."""
    templates = instance.templates
    templates.register_graph_bgp(
        "qG",
        "SELECT ?id WHERE { ?x ttn:position ttn:headOfState . ?x ttn:twitterAccount ?id }",
        parameters=("id",),
    )
    templates.register_graph_bgp(
        "politicianAccount",
        "SELECT ?name ?group ?id WHERE { ?x foaf:name ?name . "
        "?x ttn:politicalGroup ?group . ?x ttn:twitterAccount ?id }",
        parameters=("name", "group", "id"),
    )
    templates.register_fulltext(
        "tweetContains",
        query="entities.hashtags:{tag}",
        fields={"t": "text", "id": "user.screen_name"},
        parameters=("t", "id", "tag"),
        default_source=TWEETS_URI,
    )
    templates.register_fulltext(
        "tweetMentions",
        query="text:{word}",
        fields={"t": "text", "id": "user.screen_name", "rt": "retweet_count"},
        parameters=("t", "id", "rt", "word"),
        default_source=TWEETS_URI,
    )
    templates.register_sql(
        "unemploymentRate",
        sql="SELECT dept_code AS dept, year AS year, rate AS rate FROM unemployment",
        parameters=("dept", "year", "rate"),
        default_source=INSEE_URI,
    )
    templates.register_sql(
        "departmentInfo",
        sql="SELECT code AS dept, name AS dept_name, population AS population FROM departments",
        parameters=("dept", "dept_name", "population"),
        default_source=INSEE_URI,
    )
    templates.register_json(
        "tweetJson",
        pattern="{ text: ?t, user.screen_name: ?id, entities.hashtags: {tag} }",
        parameters=("t", "id", "tag"),
        default_source=TWEETS_JSON_URI,
    )
    templates.register_json(
        "tweetEngagement",
        pattern="{ text: ?t, user.screen_name: ?id, retweet_count: ?rt }",
        parameters=("t", "id", "rt"),
        default_source=TWEETS_JSON_URI,
    )
    templates.register_rdf(
        "departmentGeo",
        "SELECT ?dept ?dept_uri WHERE { ?dept_uri "
        "<http://data.ign.fr/def/geofla#codeINSEE> ?dept }",
        parameters=("dept", "dept_uri"),
        default_source=IGN_URI,
    )


# ---------------------------------------------------------------------------
# Canonical CMQs of the demonstration scenarios
# ---------------------------------------------------------------------------

def qsia_query(demo: DemoInstance, hashtag: str = "SIA2016"):
    """The paper's qSIA query: head-of-state tweets carrying ``hashtag``."""
    return (demo.instance.builder("qSIA", head=["t", "id"])
            .graph("SELECT ?id WHERE { ?x ttn:position ttn:headOfState . "
                   "?x ttn:twitterAccount ?id }")
            .fulltext("tweetContains", source=TWEETS_URI,
                      query=f"entities.hashtags:{hashtag.lower()}",
                      fields={"t": "text", "id": "user.screen_name"})
            .build())


def qsia_json_query(demo: DemoInstance, hashtag: str = "SIA2016"):
    """qSIA over the native JSON store, joined with INSEE statistics.

    A three-model mix (RDF glue + JSON tree pattern + SQL): head-of-state
    tweets carrying ``hashtag``, fetched as native JSON documents, joined
    with the unemployment statistics of the author's birth department.
    The JSON atom runs as a bind join (it shares ``id`` with the glue
    BGP); the reference plan (``cost_based=False``) materialises it.
    """
    return (demo.instance.builder("qSIAJson", head=["t", "id", "dept", "rate"])
            .graph("SELECT ?id ?dept WHERE { ?x ttn:position ttn:headOfState . "
                   "?x ttn:twitterAccount ?id . ?x ttn:birthDepartment ?dept }")
            .json("tweetJson", source=TWEETS_JSON_URI,
                  pattern='{ text: ?t, user.screen_name: ?id, '
                          f'entities.hashtags: "{hashtag.lower()}" }}')
            .sql("unemployment", source=INSEE_URI,
                 sql=("SELECT dept_code AS dept, year AS year, rate AS rate "
                      "FROM unemployment WHERE dept_code = {dept}"))
            .build())


def party_vocabulary_query(demo: DemoInstance, word: str):
    """Scenario 2: tweets containing ``word`` with the author's political group."""
    return (demo.instance.builder("partyVocabulary", head=["group", "t", "rt", "id", "week"])
            .graph("SELECT ?group ?id WHERE { ?x ttn:politicalGroup ?group . "
                   "?x ttn:twitterAccount ?id }")
            .fulltext("tweetMentions", source=TWEETS_URI,
                      query=f"text:{word}",
                      fields={"t": "text", "id": "user.screen_name",
                              "rt": "retweet_count", "week": "week"})
            .build())


def fact_checking_query(demo: DemoInstance, topic_keyword: str = "chomage"):
    """Scenario 1: factual (INSEE) sources related to presidential claims.

    Joins: head-of-state tweets mentioning the topic (full-text source) →
    the open-data registry giving, for the topic, the source URI and table
    holding the relevant statistics (relational source, *dynamic source
    discovery*) → the statistics themselves, fetched from the discovered
    source, restricted to the president's birth department through the glue
    graph.
    """
    return (demo.instance.builder("factCheck", head=["t", "dept", "year", "rate", "src"])
            .graph("SELECT ?id ?dept WHERE { ?x ttn:position ttn:headOfState . "
                   "?x ttn:twitterAccount ?id . ?x ttn:birthDepartment ?dept }")
            .fulltext("claims", source=TWEETS_URI,
                      query=f"text:{topic_keyword}",
                      fields={"t": "text", "id": "user.screen_name"})
            .sql("datasetRegistry", source=INSEE_URI,
                 sql=("SELECT source_uri AS src, table_name AS tbl FROM open_datasets "
                      f"WHERE topic = '{topic_keyword}'"))
            .sql("statistics", source_variable="src",
                 sql=("SELECT dept_code AS dept, year AS year, rate AS rate "
                      "FROM unemployment WHERE dept_code = {dept}"))
            .build())
