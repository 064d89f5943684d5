"""Unit tests for digest building, join discovery and keyword querying."""

import sys
import threading
from functools import partial

import pytest

from repro.core import MixedInstance
from repro.core.cmq import GLUE_SOURCE
from repro.datasets import DemoConfig, build_demo_instance
from repro.digest import DigestCatalog, ValueSetSummary
from repro.digest.keyword import KeywordQueryEngine
from repro.errors import FullTextError, KeywordSearchError
from repro.fulltext.source import FullTextSource
from repro.json.source import JSONSource
from repro.rdf import Graph, triple
from repro.rdf.source import RDFSource
from repro.relational import Database
from repro.relational.source import RelationalSource
from repro.remote import LocalTransport, RemoteSourceHandler
from repro.service.snapshots import PinnedCatalog


@pytest.fixture
def instance(politics_graph, small_database, small_tweet_store):
    inst = MixedInstance(graph=politics_graph, name="mini")
    inst.register_relational("sql://insee", small_database)
    inst.register_fulltext("solr://tweets", small_tweet_store)
    return inst


@pytest.fixture
def catalog(instance):
    return instance.build_digests()


def derived_catalog(instance, summarize) -> DigestCatalog:
    """A catalog of digests derived apart from the wrappers' shared ones,
    every value set ``summarize(values, keyword_aliases=...)``."""
    sources = [instance.glue_source, *instance.sources()]
    return DigestCatalog({source.uri: source.derive_digest(summarize) for source in sources})


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

    def test_rdf_summary_nodes_of_one_class_are_one_position(self):
        """Two summary nodes labelled with one class (their property sets
        differ) pool their values in one position: no node and no edge is
        listed twice, and each node's values are found there."""
        graph = Graph("people")
        graph.add(triple("ttn:A", "rdf:type", "ttn:Politician"))
        graph.add(triple("ttn:A", "ttn:name", "Alice"))
        graph.add(triple("ttn:A", "ttn:handle", "alice"))
        graph.add(triple("ttn:B", "rdf:type", "ttn:Politician"))
        graph.add(triple("ttn:B", "ttn:name", "Bob"))
        graph.add(triple("ttn:B", "ttn:handle", "bob"))
        graph.add(triple("ttn:B", "ttn:party", "left"))
        digest = RDFSource("rdf://people", graph).derive_digest()
        assert len(digest.nodes) == len(set(digest.nodes)) == 4
        assert len(digest.edges) == len(set(digest.edges))
        names = digest.values_of(digest.node("Politician", "name"))
        assert names.might_contain("Alice") and names.might_contain("Bob")
        handles = digest.values_of(digest.node("Politician", "handle"))
        assert handles.might_contain("alice") and handles.might_contain("bob")

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
        small = derived_catalog(instance, partial(ValueSetSummary, bloom_bits_per_value=4))
        large = derived_catalog(instance, partial(ValueSetSummary, bloom_bits_per_value=32))
        assert large.total_size_in_bytes() > small.total_size_in_bytes()

    def test_more_bloom_bits_cost_space_and_add_no_spurious_hits(self, demo):
        """The precision/space trade-off on the demo catalog, every value
        set on its Bloom filter: the digest grows with the bits per value,
        and the keyword hits of absent keywords do not."""
        probes = [f"absent-keyword-{i}" for i in range(50)]
        sizes, spurious = [], []
        for bits in (2, 8, 32):
            catalog = derived_catalog(demo.instance, partial(
                ValueSetSummary, bloom_bits_per_value=bits, exact_limit=0))
            sizes.append(catalog.total_size_in_bytes())
            spurious.append(sum(len(catalog.lookup_keyword(p)) for p in probes))
        assert sizes == sorted(set(sizes))
        assert spurious == sorted(spurious, reverse=True)


class TestKeywordEngine:
    def test_lookup_hits_per_keyword(self, instance):
        engine = KeywordQueryEngine(instance)
        hits = engine.lookup(["head of state", "SIA2016"])
        assert len(hits) == 2 and all(hits)

    def test_unknown_keyword_raises(self, instance):
        engine = KeywordQueryEngine(instance)
        with pytest.raises(KeywordSearchError):
            engine.lookup(["zzz-not-anywhere-zzz"])

    def test_empty_keywords_raise(self, instance):
        engine = KeywordQueryEngine(instance)
        with pytest.raises(KeywordSearchError):
            engine.search([])

    def test_paper_example_generates_qsia_like_query(self, instance):
        engine = KeywordQueryEngine(instance)
        outcome = engine.search(["head of state", "SIA2016"])
        assert outcome.candidates
        assert outcome.result is not None and len(outcome.result) >= 1
        answer = outcome.result.rows[0]
        assert any("SIA2016" in str(v) or "sia2016" in str(v).lower() for v in answer.values())

    def test_generated_query_is_a_cmq_over_two_sources(self, instance):
        engine = KeywordQueryEngine(instance)
        outcome = engine.search(["head of state", "SIA2016"])
        best = outcome.best
        sources = {a.source for a in best.query.atoms}
        assert len(sources) == 2

    def test_relational_keyword_search(self, instance):
        engine = KeywordQueryEngine(instance)
        outcome = engine.search(["Gironde"])
        assert outcome.result is not None
        assert any("Gironde" in str(v) for row in outcome.result.rows for v in row.values())

    def test_a_catalog_built_before_a_write_finds_what_it_wrote(self, instance, catalog):
        engine = KeywordQueryEngine(instance)
        engine.search(["SIA2016"])
        assert engine.catalog is catalog
        tweets = instance.source("solr://tweets")
        tweets.store.add({
            "id": 9, "text": "Le zorblatt arrive au salon", "created_at": "2016-03-02T08:00:00",
            "user": {"screen_name": "fhollande"}, "entities": {"hashtags": ["SIA2016"]}})
        outcome = engine.search(["zorblatt"])
        assert outcome.result is not None and len(outcome.result) == 1
        assert engine.catalog.digest("solr://tweets").version == tweets.version()
        assert engine.catalog.join_edges  # rediscovered over the rebuilt digest
        # The next search finds every digest where it was: nothing is rebuilt.
        digests = dict(engine.catalog.digests)
        engine.search(["zorblatt"])
        assert all(engine.catalog.digests[uri] is digest for uri, digest in digests.items())

    def test_single_keyword_single_node_path(self, instance):
        engine = KeywordQueryEngine(instance)
        outcome = engine.search(["parlement"])
        assert outcome.candidates and len(outcome.candidates[0].path) == 1

    def test_max_queries_limits_candidates(self, instance):
        engine = KeywordQueryEngine(instance)
        outcome = engine.search(["head of state", "SIA2016"], max_queries=1)
        assert len(outcome.candidates) == 1

    def test_outcome_summary_text(self, instance):
        engine = KeywordQueryEngine(instance)
        outcome = engine.search(["head of state", "SIA2016"])
        summary = outcome.summary()
        assert "keywords" in summary and "candidate" in summary

    def test_a_failing_source_is_skipped_but_a_programming_error_is_not(
            self, instance, monkeypatch):
        engine = KeywordQueryEngine(instance)

        def refuse(pinned, instance, query, **kwargs):
            raise FullTextError("source refuses")

        monkeypatch.setattr(PinnedCatalog, "execute", refuse)
        outcome = engine.search(["head of state", "SIA2016"])
        assert outcome.candidates and outcome.best is None

        def broken(pinned, instance, query, **kwargs):
            raise TypeError("a defect, not a failed candidate")

        monkeypatch.setattr(PinnedCatalog, "execute", broken)
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
    outcome = KeywordQueryEngine(instance).search([keyword])
    assert sorted(value for row in outcome.result.rows for value in row.values()) == found
    (atom,) = outcome.best.query.atoms
    assert atom.query.sql.endswith("LIKE {k0} ESCAPE '\\'") and keyword not in atom.query.sql
    escaped = keyword.replace("%", "\\%").replace("_", "\\_")
    assert atom.constants == {"k0": f"%{escaped}%"}


def test_a_name_with_a_space_runs_on_the_full_text_source_as_on_the_json_one():
    """The ``ft_solr_tweets`` candidate for ``"Anne Hollier"`` quoted the value
    into a phrase over a keyword field, raised, and was silently skipped."""
    demo = build_demo_instance()
    engine = KeywordQueryEngine(demo.instance)
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


def test_a_keyword_matching_only_a_position_name_constrains_no_value():
    """``unemployment`` names the table of ``unemployment.dept_code`` but
    matches none of its values: the position joins the path without a
    ``LIKE '%unemployment%'``, which found no row, so the cheapest
    candidate (IGN ``codeINSEE`` to ``dept_code``) answers."""
    demo = build_demo_instance(DemoConfig(politicians=18, weeks=4,
                                          tweets_per_politician_per_week=2.0, seed=42))
    outcome = demo.instance.keyword_query(["Gironde", "unemployment"])
    cheapest = outcome.candidates[0]
    assert [hit.node.label() for hit in cheapest.hits] == [
        "Departement.nom", "unemployment.dept_code"]
    assert demo.instance.execute(cheapest.query).rows
    assert [hit.name_only for hit in cheapest.hits] == [False, True]
    sql = next(atom for atom in cheapest.query.atoms if atom.source == "sql://insee")
    assert sql.query.sql == "SELECT dept_code AS v1 FROM unemployment" and not sql.constants
    assert outcome.best is cheapest


def test_keyword_search_on_a_federated_instance_reports_what_it_cannot_see():
    """Behind a remote wrapper the data lives with the peer: the source
    derives no digest, contributes no hit, and the outcome names it
    (the engine used to refuse the whole search with a ``DigestError``)."""
    instance, remote = _federated()
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


def test_a_built_catalog_never_changes_and_the_next_one_holds_a_write():
    """A catalog is a value built from one pin's digests: a write leaves
    it, its join edges and its path-search graph as they were, and the
    catalog of the pin after the write holds what it wrote."""
    instance = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42)).instance
    catalog = instance.build_digests()
    digests, edges, graph = dict(catalog.digests), list(catalog.join_edges), catalog.adjacency()
    neighbours = {node: list(graph[node]) for node in graph}
    instance.source("solr://tweets").store.add({
        "id": 999_999, "text": "zorblatt", "created_at": "2016-03-02T08:00:00",
        "user": {"screen_name": "someone"}, "zorblatt_field": "x"})
    after = instance.build_digests()
    assert after is not catalog
    assert {node.position for node in after.adjacency()} >= {"zorblatt_field"}
    assert catalog.digests.keys() == digests.keys()
    assert all(catalog.digests[uri] is digest for uri, digest in digests.items())
    assert catalog.join_edges == edges and catalog.adjacency() is graph
    assert {node: list(graph[node]) for node in graph} == neighbours
    assert "zorblatt_field" not in {node.position for node in graph}


def test_searches_racing_a_writer_each_read_one_pin():
    """Searches share the instance's one catalog slot, unlocked, while a
    writer adds tweets: each search finds its keyword in the digest of
    the version it pinned and answers with exactly that version's tweets."""
    instance = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42)).instance
    tweets = instance.source("solr://tweets")
    counts = {tweets.version(): 0}

    def write():
        for i in range(1, 9):
            tweets.store.add({"id": 900_000 + i, "text": f"zorblatt {i}",
                              "created_at": "2016-03-02T08:00:00",
                              "user": {"screen_name": "someone"}})
            counts[tweets.version()] = i
            searched.clear()
            searched.wait(timeout=10)  # let a search land between writes

    seen, failures, searched = [], [], threading.Event()

    def search():
        engine = KeywordQueryEngine(instance)
        try:
            while not done.is_set():
                try:
                    outcome = engine.search(["zorblatt"])
                except KeywordSearchError:  # pinned before the first write
                    continue
                seen.append((engine.pinned.versions["solr://tweets"],
                             engine.catalog.digest("solr://tweets").version,
                             len(outcome.result)))
                searched.set()
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(error)

    done = threading.Event()
    searchers = [threading.Thread(target=search) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in searchers:
            thread.start()
        write()
    finally:
        done.set()
        for thread in searchers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in searchers)
    assert not failures, failures[0]
    assert len({pinned for pinned, _, _ in seen}) > 1
    assert all(pinned == filed and answered == counts[pinned]
               for pinned, filed, answered in seen)


def _federated():
    """The demo instance with its SQL sources served remotely."""
    instance = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42)).instance
    remote = [uri for uri in instance.source_uris() if uri.startswith("sql://")]
    for uri in remote:
        local = instance.source(uri)
        instance.register_remote(LocalTransport(RemoteSourceHandler(local).handle),
                                 uri=uri, model=local.model, name=local.name)
    return instance, remote


def test_building_the_catalog_sends_no_frame_to_a_remote_source():
    """A remote wrapper has no store, so its digest is ``None`` without
    a question: each search sent two ``version`` frames per remote
    source only to learn that."""
    instance, remote = _federated()
    wrappers = [instance.source(uri) for uri in remote]
    sent = [wrapper.stats()["calls_by_op"] for wrapper in wrappers]
    assert instance.build_digests().undigested == remote
    assert [wrapper.stats()["calls_by_op"] for wrapper in wrappers] == sent


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
