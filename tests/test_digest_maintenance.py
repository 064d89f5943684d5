"""The digest a wrapper keeps: one per lineage, carried over inserts.

A relational wrapper's digest serves both keyword search and the
planner's column estimates.  It is shared by the live wrapper and its
pins and moves to a newer version by absorbing the journal's insert-only
records into a copy (a digest once handed out never changes); any other
change derives it again.  A differential property test
holds the kept digest to a freshly derived one.  Every model derives its
digest in one reading of its store, so a digest derived while a writer
commits is exactly the version it is stamped with.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import DemoConfig, build_demo_instance
from repro.datasets.rdf_sources import ign
from repro.digest.keyword import KeywordQueryEngine
from repro.fulltext.source import FullTextSource
from repro.fulltext.store import tweet_store
from repro.json.source import JSONSource
from repro.json.store import JSONDocumentStore
from repro.rdf import URI, Graph, TriplePattern, Variable, literal, triple
from repro.rdf.source import RDFSource
from repro.relational import Database
from repro.relational.source import RelationalSource, SQLQuery
from repro.stats.catalog import StatisticsCatalog

pytestmark = pytest.mark.streaming


@pytest.fixture
def derivations(monkeypatch) -> list[str]:
    """The URI of each relational digest derived while the test runs."""
    calls: list[str] = []
    derive = RelationalSource.derive_digest

    def counted(self, *args, **kwargs):
        calls.append(self.uri)
        return derive(self, *args, **kwargs)

    monkeypatch.setattr(RelationalSource, "derive_digest", counted)
    return calls


def _summary(source: RelationalSource, table: str, column: str):
    digest = source.digest()
    return digest.values_of(digest.node(table, column))


class TestDigestAbsorption:
    def test_the_digest_absorbs_insert_only_deltas(self, derivations):
        db = Database("d")
        db.create_table_from_rows("t", [{"c": i, "s": f"v{i}"}
                                        for i in range(100)])
        source = RelationalSource("sql://d", db)
        digest = source.digest()
        summary = _summary(source, "t", "c")
        assert derivations == ["sql://d"]
        db.table("t").insert_many([{"c": 1000 + i, "s": "new"}
                                   for i in range(10)])
        absorbed = _summary(source, "t", "c")
        kept = source.digest()
        assert absorbed is not summary and kept is not digest  # folded into copies
        assert kept.version == source.version() > digest.version
        assert summary.total_values == 100 and not summary.might_contain(1005)
        assert derivations == ["sql://d"]  # absorbed, not derived again
        assert absorbed.total_values == 110
        assert absorbed.might_contain(1005) and absorbed.might_contain(50)
        assert not absorbed.might_contain(424242)

    def test_pins_and_estimates_read_the_one_digest(self, derivations):
        db = Database("d")
        db.create_table_from_rows("t", [{"c": i % 10} for i in range(100)])
        source = RelationalSource("sql://d", db)
        query = SQLQuery("SELECT c AS c FROM t WHERE c = 3")
        assert StatisticsCatalog().estimate(source.pin(), query) == 10.0
        assert source.pin().digest() is source.digest()
        assert StatisticsCatalog().estimate(source, query) == 10.0
        assert derivations == ["sql://d"]

    def test_two_readers_missing_one_version_absorb_its_inserts_once(self, derivations):
        """Two threads miss the same version and both read the journal
        before either folds it: the inserts are absorbed into the kept
        digest once, not once per thread."""
        db = Database("d")
        db.create_table_from_rows("t", [{"c": i} for i in range(100)])
        source = RelationalSource("sql://d", db)
        source.digest()
        db.table("t").insert_many([{"c": 1000 + i} for i in range(10)])
        barrier, deltas_since = threading.Barrier(2), source.deltas_since

        def held(*args):
            barrier.wait(timeout=10)
            return deltas_since(*args)

        source.deltas_since = held
        found = []
        threads = [threading.Thread(target=lambda: found.append(
            _summary(source, "t", "c"))) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(found) == 2 and found[0] is found[1]
        assert found[0].total_values == 110
        assert derivations == ["sql://d"]

    def test_absorbed_summary_tracks_top_k_and_histogram(self, derivations):
        db = Database("d")
        db.create_table_from_rows("t", [{"s": f"v{i}", "n": float(i)}
                                        for i in range(50)])
        source = RelationalSource("sql://d", db)
        s0, n0 = _summary(source, "t", "s"), _summary(source, "t", "n")
        db.table("t").insert_many([{"s": "hot", "n": 25.0}] * 20)
        s = _summary(source, "t", "s")
        n = _summary(source, "t", "n")
        assert derivations == ["sql://d"]  # absorbed, not derived again
        assert s.top_k.frequency("hot") == 20
        assert n.numeric and n.histogram.total == 70
        assert s0.top_k.frequency("hot") == 0 and n0.histogram.total == 50
        # Out-of-range values clamp into the edge buckets.
        db.table("t").insert_many([{"s": "x", "n": 10_000.0}])
        n2 = _summary(source, "t", "n")
        assert n2.histogram.total == 71 and n.histogram.total == 70
        assert sum(bucket.count for bucket in n.histogram.buckets) == 70
        assert derivations == ["sql://d"]

    def test_keyword_lookups_survive_inserts_absorbed_meanwhile(self):
        """Keyword search and the planner read the one digest: a lookup
        walking a digest while a planner absorbs inserts reads the digest
        it started with, which the inserts never reach."""
        db = Database("d")
        db.create_table_from_rows("t", [{"s": f"v{i}"} for i in range(100)])
        source = RelationalSource("sql://d", db)
        digest = source.digest()
        version, stop, failures = digest.version, threading.Event(), []

        def look_up():
            try:
                while not stop.is_set():
                    digest.lookup_keyword("absent")
            except Exception as exc:  # noqa: BLE001 - the failure is the finding
                failures.append(exc)

        reader = threading.Thread(target=look_up)
        reader.start()
        try:
            for batch in range(50):
                db.table("t").insert_many([{"s": f"w{batch}_{i}"} for i in range(10)])
                assert source.digest().nodes is digest.nodes  # absorbed
        finally:
            stop.set()
            reader.join()
        assert failures == []
        assert digest.lookup_keyword("w49_9") == [] and digest.version == version
        assert _summary(source, "t", "s").exact is None  # grown past its limit

    def test_a_catalog_is_not_changed_by_a_later_insert(self):
        """A digest, once handed out, never changes: an insert folded into
        the next catalog's relational digest does not reach the catalog
        built before it."""
        demo = build_demo_instance(DemoConfig(politicians=18, weeks=4,
                                              tweets_per_politician_per_week=2.0, seed=42))
        old = demo.instance.build_digests()
        digest = old.digest("sql://insee")
        version, node = digest.version, digest.node("unemployment", "dept_code")
        demo.insee.execute("INSERT INTO unemployment (dept_code, year, quarter, rate) "
                           "VALUES ('zz', 2020, 1, 9.0)")
        new = demo.instance.build_digests()
        assert new.values_of(new.digest("sql://insee").node("unemployment", "dept_code")
                             ).might_contain("zz")
        assert node in new.lookup_keyword("zz")
        assert not old.values_of(node).might_contain("zz")
        assert node not in old.lookup_keyword("zz")
        assert old.digest("sql://insee") is digest and digest.version == version

    def test_a_pin_older_than_the_kept_digest_derives_its_own(self, derivations):
        db = Database("d")
        db.create_table_from_rows("t", [{"c": i} for i in range(10)])
        source = RelationalSource("sql://d", db)
        old = source.pin()
        db.table("t").insert_many([{"c": 99}])
        kept = source.digest()
        assert old.digest() is not kept and old.digest().version < kept.version
        assert source.digest() is kept  # the older version is not kept
        assert not _summary(old, "t", "c").might_contain(99)


# ---------------------------------------------------------------------------
# Differential: the kept digest against a fresh derivation
# ---------------------------------------------------------------------------

_WORDS = ["gironde", "paris", "lyon", "head of state", "sia2016", "x_y", "50%"]
_ROWS = st.lists(st.fixed_dictionaries({"n": st.integers(-40, 40) | st.none(),
                                        "s": st.sampled_from(_WORDS)}),
                 min_size=1, max_size=8)


def _assert_matches_a_fresh_derivation(source: RelationalSource) -> None:
    kept, fresh = source.digest(), source.derive_digest()
    assert kept.version == fresh.version == source.version()
    assert kept.nodes == fresh.nodes and kept.edges == fresh.edges
    assert kept.metadata == fresh.metadata
    for node in fresh.nodes:
        maintained, derived = kept.values_of(node), fresh.values_of(node)
        assert maintained.total_values == derived.total_values
        assert (maintained.exact is None) == (derived.exact is None)
        if derived.exact is not None:
            assert maintained.exact == derived.exact
        values = source.database.table(node.container).column_values(node.position)
        for value in values:
            assert value is None or maintained.might_contain(value)
        for value in {str(v) for v in values if v is not None}:
            assert kept.lookup_keyword(value) == fresh.lookup_keyword(value)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batches=st.lists(st.tuples(st.sampled_from(["t", "u"]), _ROWS),
                        min_size=1, max_size=6),
       reset=st.sampled_from(["create", "drop"]))
def test_the_kept_digest_matches_a_fresh_one(batches, reset):
    db = Database("d")
    db.create_table_from_rows("t", [{"n": i, "s": _WORDS[i % 3]} for i in range(5)])
    db.create_table_from_rows("u", [{"n": -i, "s": _WORDS[i % 4]} for i in range(3)])
    source = RelationalSource("sql://d", db)
    first = source.digest()
    for table, rows in batches:
        db.table(table).insert_many(rows)
        assert source.digest().nodes is first.nodes  # absorbed, not derived again
        _assert_matches_a_fresh_derivation(source)
    if reset == "create":
        db.create_table_from_rows("v", [{"n": 7, "s": "lyon"}])
    else:
        db.drop_table("u")
    assert source.digest().nodes is not first.nodes
    _assert_matches_a_fresh_derivation(source)


# ---------------------------------------------------------------------------
# One read protocol: a digest derived under writes is its version's
# ---------------------------------------------------------------------------

def _tweet(i: int) -> dict:
    return {"id": i, "text": f"vote budget w{i % 97} urgence", "retweet_count": i % 11,
            "user": {"screen_name": f"u{i % 50}"}, "entities": {"hashtags": [f"h{i % 13}"]}}


def _fulltext(size: int):
    store = tweet_store("s")
    store.add_all(_tweet(i) for i in range(size))
    return store, FullTextSource, lambda batch: store.add_all(
        _tweet(size + 5 * batch + k) for k in range(5))


def _json(size: int):
    store = JSONDocumentStore("j")
    store.add_all(_tweet(i) for i in range(size))
    return store, JSONSource, lambda batch: store.add_all(
        _tweet(size + 5 * batch + k) for k in range(5))


def _fact(i: int) -> list:
    return [triple(f"ttn:s{i}", "rdf:type", f"ttn:C{i % 3}"),
            triple(f"ttn:s{i}", "ttn:name", f"n{i}"), triple(f"ttn:s{i}", "ttn:p", i % 29)]


def _rdf(size: int):
    graph = Graph("g", [t for i in range(size // 3) for t in _fact(i)])
    return graph, RDFSource, lambda batch: graph.add_all(
        t for k in range(2) for t in _fact(size + 2 * batch + k))


def _relational(size: int):
    database = Database("d")
    database.create_table_from_rows("t", [{"n": i, "s": f"v{i % 41}"} for i in range(size)])
    return database, RelationalSource, lambda batch: database.table("t").insert_many(
        {"n": size + 5 * batch + k, "s": f"v{k}"} for k in range(5))


def _exact(values, keyword_aliases=()) -> tuple:
    """A value set as the multiset it summarises (order aside)."""
    return sorted(map(repr, values)), sorted(map(repr, keyword_aliases))


class TestReadProtocol:
    @pytest.mark.parametrize("pinned", [False, True], ids=["live", "pinned"])
    @pytest.mark.parametrize("world, size", [(_fulltext, 2000), (_json, 2000),
                                             (_rdf, 5000), (_relational, 2000)],
                             ids=["fulltext", "json", "rdf", "relational"])
    def test_a_digest_derived_under_writes_is_its_stamped_version(self, world, size, pinned):
        """A writer commits small batches while the wrapper derives its
        digest: no read iterates a container the writer resizes, and each
        digest's value sets are those of a snapshot at its version."""
        store, wrapper, write = world(size)
        source = wrapper("src://s", store)
        reader = source.pin() if pinned else source
        views = {store.version: store.snapshot()}
        stop, wrote, failures = threading.Event(), threading.Event(), []

        def writer():
            batch = 0
            try:
                while not stop.is_set():
                    write(batch)
                    batch += 1
                    views[store.version] = store.snapshot()
                    wrote.set()
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)
                wrote.set()

        thread = threading.Thread(target=writer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread.start()
        try:
            wrote.wait(timeout=60)
            digests = [reader.derive_digest(_exact) for _ in range(3)]
        finally:
            stop.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not failures, failures[0]
        for digest in digests:
            expected = wrapper("src://s", views[digest.version]).derive_digest(_exact)
            assert digest.value_sets == expected.value_sets
            assert digest.metadata == expected.metadata

    @pytest.mark.parametrize("make, read", [
        (lambda: JSONDocumentStore("j"), lambda view: view.documents()),
        (lambda: tweet_store("s"), lambda view: view.documents()),
        (lambda: tweet_store("s"), lambda view: view.search("text:vote")),
        (lambda: Graph("g", _fact(0)), lambda view: view.match(
            TriplePattern(Variable("s"), Variable("p"), Variable("o"))))],
        ids=["json", "fulltext", "fulltext-search", "rdf"])
    def test_a_snapshot_is_read_through_reading_only(self, make, read):
        """A snapshot holds no data: a direct read raises, the same read
        inside ``reading()`` answers."""
        view = make().snapshot()
        with pytest.raises(AttributeError):
            read(view)
        with view.reading() as frozen:
            read(frozen)

    def test_a_write_landing_mid_search_does_not_reach_its_answer(self, monkeypatch):
        """A keyword search reads one pin: a write landing between its
        candidates' generation and their evaluation — a second IGN
        department named Gironde, INSEE code 99, with its unemployment
        row — leaves the answer that of the version the search began at
        (each candidate on a pin of its own answered ``33, 99``)."""
        instance = build_demo_instance(DemoConfig(
            politicians=18, weeks=4, tweets_per_politician_per_week=2.0, seed=42)).instance
        keywords = ["Gironde", "unemployment"]
        before = instance.keyword_query(keywords)
        assert sorted(row["v1"] for row in before.result.rows) == ["33"]
        generate = KeywordQueryEngine.generate_queries

        def then_write(engine, *args, **kwargs):
            candidates = generate(engine, *args, **kwargs)
            department = URI("http://data.ign.fr/id/departement/99")
            instance.source("rdf://ign").graph.add_all([
                triple(department, "rdf:type", ign("Departement")),
                triple(department, ign("codeINSEE"), literal("99")),
                triple(department, ign("nom"), literal("Gironde"))])
            instance.source("sql://insee").database.table("unemployment").insert(
                {"dept_code": "99", "year": 2016, "quarter": 1, "rate": 9.9})
            return candidates

        monkeypatch.setattr(KeywordQueryEngine, "generate_queries", then_write)
        during = instance.keyword_query(keywords)
        monkeypatch.undo()
        assert during.best.query == before.best.query
        assert during.result.rows == before.result.rows
        after = instance.execute(before.best.query)  # the write reaches later reads
        assert sorted(row["v1"] for row in after.rows) == ["33", "99"]
