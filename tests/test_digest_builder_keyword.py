"""Unit tests for digest building, join discovery and keyword querying."""

import threading
from functools import partial

import pytest

from repro.core import MixedInstance
from repro.core.cmq import GLUE_SOURCE
from repro.datasets import DemoConfig, build_demo_instance
from repro.digest import DigestCatalog, ValueSetSummary, build_catalog, refresh_catalog
from repro.digest.keyword import KeywordQueryEngine
from repro.errors import FullTextError, KeywordSearchError
from repro.fulltext.source import FullTextSource
from repro.json.source import JSONSource
from repro.rdf import Graph
from repro.rdf.source import RDFSource
from repro.relational import Database
from repro.relational.source import RelationalSource
from repro.remote import LocalTransport, RemoteSourceHandler


@pytest.fixture
def instance(politics_graph, small_database, small_tweet_store):
    inst = MixedInstance(graph=politics_graph, name="mini")
    inst.register_relational("sql://insee", small_database)
    inst.register_fulltext("solr://tweets", small_tweet_store)
    return inst


@pytest.fixture
def catalog(instance):
    return build_catalog(instance)


class TestDigestBuilding:
    def test_relational_digest_has_node_per_attribute(self, instance):
        digest = instance.source("sql://insee").derive_digest()
        labels = {n.label() for n in digest.nodes}
        assert "departments.code" in labels and "unemployment.rate" in labels

    def test_relational_digest_foreign_key_edge(self, instance):
        digest = instance.source("sql://insee").derive_digest()
        assert any(e.kind == "foreign-key" for e in digest.edges)

    def test_relational_value_sets(self, instance):
        digest = instance.source("sql://insee").derive_digest()
        node = digest.node("departments", "code")
        assert digest.values_of(node).might_contain("75")

    def test_fulltext_digest_uses_dataguide_paths(self, instance):
        digest = instance.source("solr://tweets").derive_digest()
        positions = {n.position for n in digest.nodes}
        assert "user.screen_name" in positions and "entities.hashtags" in positions

    def test_fulltext_text_field_indexes_tokens(self, instance):
        digest = instance.source("solr://tweets").derive_digest()
        node = digest.node("mini_tweets", "text")
        assert digest.values_of(node).matches_keyword("solidarite")

    def test_rdf_digest_positions_are_properties(self, instance):
        digest = instance.glue_source.derive_digest()
        positions = {n.position for n in digest.nodes}
        assert "twitterAccount" in positions and "position" in positions

    def test_rdf_digest_keyword_alias_on_uri_values(self, instance):
        digest = instance.glue_source.derive_digest()
        hits = digest.lookup_keyword("head of state")
        assert any(n.position == "position" for n in hits)

    def test_lookup_by_position_name(self, instance):
        digest = instance.source("sql://insee").derive_digest()
        assert any(n.position == "rate" for n in digest.lookup_keyword("rate"))

    def test_size_in_bytes_positive(self, instance):
        digest = instance.source("sql://insee").derive_digest()
        assert digest.size_in_bytes() > 0


class TestCatalog:
    def test_catalog_contains_all_sources_plus_glue(self, catalog):
        assert len(catalog) == 3
        assert "#glue" in catalog.digests

    def test_join_edges_cross_sources_only(self, catalog):
        assert catalog.join_edges
        assert all(e.source.source_uri != e.target.source_uri for e in catalog.join_edges)

    def test_twitter_account_join_discovered(self, catalog):
        pairs = {frozenset((e.source.position, e.target.position)) for e in catalog.join_edges}
        assert frozenset(("twitterAccount", "user.screen_name")) in pairs

    def test_intra_source_joins_use_schema_edges_not_probing(self, catalog):
        # departments.code -> unemployment.dept_code is a foreign key, so it is
        # an intra-source digest edge, never a probed join candidate.
        digest = catalog.digest("sql://insee")
        fk_pairs = {frozenset((e.source.label(), e.target.label()))
                    for e in digest.edges if e.kind == "foreign-key"}
        assert frozenset(("departments.code", "unemployment.dept_code")) in fk_pairs

    def test_networkx_graph_connects_sources(self, catalog):
        graph = catalog.adjacency()
        sources = {n.source_uri for n in graph}
        assert len(sources) == 3
        components, seen = 0, set()
        for node in graph:
            if node not in seen:
                components += 1
                stack = [node]
                while stack:
                    reached = stack.pop()
                    if reached not in seen:
                        seen.add(reached)
                        stack.extend(graph[reached])
        assert components < len(graph)

    def test_total_size(self, catalog):
        assert catalog.total_size_in_bytes() > 0

    def test_bloom_budget_changes_size(self, instance):
        small = build_catalog(instance, summarize=partial(ValueSetSummary, bloom_bits_per_value=4))
        large = build_catalog(instance, summarize=partial(ValueSetSummary, bloom_bits_per_value=32))
        assert large.total_size_in_bytes() > small.total_size_in_bytes()

    def test_more_bloom_bits_cost_space_and_add_no_spurious_hits(self, demo):
        """The precision/space trade-off on the demo catalog, every value
        set on its Bloom filter: the digest grows with the bits per value,
        and the keyword hits of absent keywords do not."""
        probes = [f"absent-keyword-{i}" for i in range(50)]
        sizes, spurious = [], []
        for bits in (2, 8, 32):
            catalog = build_catalog(demo.instance, summarize=partial(
                ValueSetSummary, bloom_bits_per_value=bits, exact_limit=0))
            sizes.append(catalog.total_size_in_bytes())
            spurious.append(sum(len(catalog.lookup_keyword(p)) for p in probes))
        assert sizes == sorted(set(sizes))
        assert spurious == sorted(spurious, reverse=True)


class TestKeywordEngine:
    def test_lookup_hits_per_keyword(self, instance, catalog):
        engine = KeywordQueryEngine(instance, catalog=catalog)
        hits = engine.lookup(["head of state", "SIA2016"])
        assert len(hits) == 2 and all(hits)

    def test_unknown_keyword_raises(self, instance, catalog):
        engine = KeywordQueryEngine(instance, catalog=catalog)
        with pytest.raises(KeywordSearchError):
            engine.lookup(["zzz-not-anywhere-zzz"])

    def test_empty_keywords_raise(self, instance, catalog):
        engine = KeywordQueryEngine(instance, catalog=catalog)
        with pytest.raises(KeywordSearchError):
            engine.search([])

    def test_paper_example_generates_qsia_like_query(self, instance, catalog):
        engine = KeywordQueryEngine(instance, catalog=catalog)
        outcome = engine.search(["head of state", "SIA2016"])
        assert outcome.candidates
        assert outcome.result is not None and len(outcome.result) >= 1
        answer = outcome.result.rows[0]
        assert any("SIA2016" in str(v) or "sia2016" in str(v).lower() for v in answer.values())

    def test_generated_query_is_a_cmq_over_two_sources(self, instance, catalog):
        engine = KeywordQueryEngine(instance, catalog=catalog)
        outcome = engine.search(["head of state", "SIA2016"])
        best = outcome.best
        sources = {a.source for a in best.query.atoms}
        assert len(sources) == 2

    def test_relational_keyword_search(self, instance, catalog):
        engine = KeywordQueryEngine(instance, catalog=catalog)
        outcome = engine.search(["Gironde"])
        assert outcome.result is not None
        assert any("Gironde" in str(v) for row in outcome.result.rows for v in row.values())

    def test_a_catalog_built_before_a_write_finds_what_it_wrote(self, instance, catalog):
        engine = KeywordQueryEngine(instance, catalog=catalog)
        engine.search(["SIA2016"])
        tweets = instance.source("solr://tweets")
        tweets.store.add({
            "id": 9, "text": "Le zorblatt arrive au salon", "created_at": "2016-03-02T08:00:00",
            "user": {"screen_name": "fhollande"}, "entities": {"hashtags": ["SIA2016"]}})
        outcome = engine.search(["zorblatt"])
        assert outcome.result is not None and len(outcome.result) == 1
        assert catalog.digest("solr://tweets").version == tweets.version()
        assert catalog.join_edges  # rediscovered over the rebuilt digest
        # The next search finds every source at its stamp: nothing is rebuilt.
        digests = dict(catalog.digests)
        engine.search(["zorblatt"])
        assert all(catalog.digests[uri] is digest for uri, digest in digests.items())

    def test_single_keyword_single_node_path(self, instance, catalog):
        engine = KeywordQueryEngine(instance, catalog=catalog)
        outcome = engine.search(["parlement"])
        assert outcome.candidates and len(outcome.candidates[0].path) == 1

    def test_max_queries_limits_candidates(self, instance, catalog):
        engine = KeywordQueryEngine(instance, catalog=catalog)
        outcome = engine.search(["head of state", "SIA2016"], max_queries=1)
        assert len(outcome.candidates) == 1

    def test_outcome_summary_text(self, instance, catalog):
        engine = KeywordQueryEngine(instance, catalog=catalog)
        outcome = engine.search(["head of state", "SIA2016"])
        summary = outcome.summary()
        assert "keywords" in summary and "candidate" in summary

    def test_a_failing_source_is_skipped_but_a_programming_error_is_not(
            self, instance, catalog, monkeypatch):
        engine = KeywordQueryEngine(instance, catalog=catalog)

        def refuse(query, **kwargs):
            raise FullTextError("source refuses")

        monkeypatch.setattr(instance, "execute", refuse)
        outcome = engine.search(["head of state", "SIA2016"])
        assert outcome.candidates and outcome.best is None

        def broken(query, **kwargs):
            raise TypeError("a defect, not a failed candidate")

        monkeypatch.setattr(instance, "execute", broken)
        with pytest.raises(TypeError):
            engine.search(["head of state", "SIA2016"])


@pytest.mark.parametrize("keyword,found", [("a_b", ["a_b", "xa_by"]),
                                           ("50%", ["50%", "x50%y"]),
                                           ("o'b", ["o'b", "xo'by"])])
def test_a_relational_hit_matches_only_rows_containing_its_text(keyword, found):
    """The SQL atom binds ``%value%`` to its ``LIKE``, with the value's own
    ``%`` and ``_`` escaped: unescaped, ``'%a_b%'`` also matched ``axb``
    and ``'%50%%'`` ``500``; a ``'`` never reaches the SQL text."""
    database = Database("notes")
    database.create_table_from_rows("notes", [{"code": code} for code in (
        "a_b", "axb", "xa_by", "a%b", "50%", "500", "x50%y", "5_0",
        "o'b", "o'c", "b'o", "xo'by")])
    instance = MixedInstance(graph=Graph("g"), name="notes")
    instance.register_relational("sql://notes", database)
    outcome = KeywordQueryEngine(instance, catalog=build_catalog(instance)).search([keyword])
    assert sorted(value for row in outcome.result.rows for value in row.values()) == found
    (atom,) = outcome.best.query.atoms
    assert atom.query.sql.endswith("LIKE {k0} ESCAPE '\\'") and keyword not in atom.query.sql
    escaped = keyword.replace("%", "\\%").replace("_", "\\_")
    assert atom.constants == {"k0": f"%{escaped}%"}


def test_a_name_with_a_space_runs_on_the_full_text_source_as_on_the_json_one():
    """The ``ft_solr_tweets`` candidate for ``"Anne Hollier"`` quoted the value
    into a phrase over a keyword field, raised, and was silently skipped."""
    demo = build_demo_instance()
    engine = KeywordQueryEngine(demo.instance, catalog=demo.instance.build_digests())
    candidates = {candidate.query.atoms[0].name: candidate.query
                  for candidate in engine.generate_queries(engine.lookup(["Anne Hollier"]),
                                                           max_queries=None)
                  if len(candidate.query.atoms) == 1}
    fulltext, json = candidates["ft_solr_tweets"], candidates["json_tweets_json"]
    assert fulltext.atoms[0].query.query_template == "user.name:{k0}"
    assert fulltext.atoms[0].constants == {"k0": "anne hollier"}
    tweets = sorted(row["txt_solr_tweets"] for row in demo.instance.execute(fulltext).rows)
    assert tweets == sorted(row["txt_tweets_json"]
                            for row in demo.instance.execute(json).rows)
    assert tweets


def test_keyword_search_on_a_federated_instance_reports_what_it_cannot_see():
    """Behind a remote wrapper the data lives with the peer: the source
    derives no digest, contributes no hit, and the outcome names it
    (the engine used to refuse the whole search with a ``DigestError``)."""
    instance = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42)).instance
    remote = [uri for uri in instance.source_uris() if uri.startswith("sql://")]
    for uri in remote:
        local = instance.source(uri)
        instance.register_remote(LocalTransport(RemoteSourceHandler(local).handle),
                                 uri=uri, model=local.model, name=local.name)
    outcome = instance.keyword_query(["head of state", "SIA2016"])
    assert outcome.undigested == remote == instance.build_digests().undigested
    assert outcome.candidates and outcome.result
    assert all(atom.source not in remote for candidate in outcome.candidates
               for atom in candidate.query.atoms)
    gap = f"sources without a digest: {', '.join(remote)}"
    assert gap in outcome.summary()
    # A keyword only a remote source holds is not found, and the error says why.
    with pytest.raises(KeywordSearchError, match=gap):
        instance.keyword_query(["Gironde", "unemployment"])


def test_a_source_registered_again_is_filed_again():
    """The kept catalog stamps each source with its wrapper, not only its
    version: a URI registered again as remote, whose peer reports the
    same version, no longer answers from the local digest it replaced."""
    instance = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42)).instance
    local = instance.source("sql://insee")
    assert instance.keyword_query(["Gironde", "unemployment"]).result
    instance.register_remote(LocalTransport(RemoteSourceHandler(local).handle),
                             uri=local.uri, model=local.model, name=local.name)
    assert instance.source(local.uri).version() == local.version()
    assert instance.build_digests().undigested == [local.uri]
    outcome = instance.keyword_query(["head of state", "SIA2016"])
    assert outcome.undigested == [local.uri]
    assert all(atom.source != local.uri for candidate in outcome.candidates
               for atom in candidate.query.atoms)


def test_a_graph_built_while_the_catalog_is_refreshed_is_not_kept():
    """The path-search graph is memoised on the instance's one catalog: a
    build racing a refresh must not store a graph of the digests the
    refresh replaced."""
    instance = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42)).instance
    catalog = instance.build_digests()
    building, refreshed = threading.Event(), threading.Event()

    class Held(list):
        def __radd__(self, other):  # the graph joins the digests' edges to these
            building.set()
            refreshed.wait(timeout=0.5)  # the refresh cannot run meanwhile
            return other + list(self)

    catalog.join_edges, catalog._adjacency = Held(catalog.join_edges), None
    builder = threading.Thread(target=catalog.adjacency)
    builder.start()
    building.wait(timeout=10)
    instance.source("solr://tweets").store.add({
        "id": 999_999, "text": "zorblatt", "created_at": "2016-03-02T08:00:00",
        "user": {"screen_name": "someone"}, "zorblatt_field": "x"})
    refresh_catalog(instance, catalog)
    refreshed.set()
    builder.join()
    assert {node.position for node in catalog.adjacency()} >= {"zorblatt_field"}


def test_the_instance_keeps_its_catalog_and_refreshes_only_what_moved(monkeypatch):
    """Each ``keyword_query()`` used to derive every digest and rediscover
    every join edge; the instance now keeps one catalog."""
    instance = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42)).instance
    derived: list[str] = []
    for wrapper in (RDFSource, RelationalSource, FullTextSource, JSONSource):
        def counted(self, *args, _derive=wrapper.derive_digest, **kwargs):
            derived.append(self.uri)
            return _derive(self, *args, **kwargs)
        monkeypatch.setattr(wrapper, "derive_digest", counted)
    discoveries = []
    discover = DigestCatalog.discover_join_edges
    monkeypatch.setattr(DigestCatalog, "discover_join_edges",
                        lambda self: discoveries.append(self) or discover(self))
    instance.keyword_query(["head of state", "SIA2016"])
    assert sorted(derived) == sorted([GLUE_SOURCE, *instance.source_uris()])
    assert len(discoveries) == 1
    derived.clear()
    instance.keyword_query(["head of state", "SIA2016"])
    assert derived == [] and len(discoveries) == 1
    instance.source("solr://tweets").store.add({
        "id": 999_999, "text": "zorblatt", "created_at": "2016-03-02T08:00:00",
        "user": {"screen_name": "someone"}})
    outcome = instance.keyword_query(["zorblatt"])
    assert derived == ["solr://tweets"] and len(discoveries) == 2
    assert outcome.result is not None and len(outcome.result) == 1
