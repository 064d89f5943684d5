"""The one JSON matcher against per-document reference scans.

The index-assisted walk (``TreePatternMatcher(store)``) must return
exactly the rows of scanning every stored document, in insertion order,
with the naive :func:`~repro.json.matcher.match_document`, for every
pattern shape: child and wildcard (``*``/``**``) paths, value predicates
across every comparison, bound ``{param}`` predicates and pushed-down
bindings.  The suite also pins the snapshot contract (a pinned reader
answers its own version under any interleaving of writes), the
copy-on-write path indexes, deep documents without recursion, and the
catalog's estimates on a small workload.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import JSONQuery, StatisticsCatalog
from repro.json.source import JSONSource
from repro.engine.batch import BindingBatch
from repro.json import (
    JSONDocumentStore,
    Parameter,
    PatternLeaf,
    Predicate,
    TreePatternMatcher,
    make_pattern,
    match_document,
    parse_pattern,
)
from repro.json.pattern import COMPARISONS

pytestmark = pytest.mark.json_matcher


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_KEYS = ("a", "b", "c", "d", "e")

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.5, 2.5]),
    st.sampled_from(["x", "y", "z", "politics"]),
)

# Containers stay non-empty: empty dicts/lists carry no indexable leaf,
# which the candidate pruning (shared by both matchers) treats as absent.
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3),
        st.dictionaries(st.sampled_from(_KEYS), children,
                        min_size=1, max_size=3),
    ),
    max_leaves=12,
)

_DOCUMENTS = st.lists(
    st.dictionaries(st.sampled_from(_KEYS), _JSON, min_size=1, max_size=4),
    min_size=1, max_size=8,
)

_SEGMENTS = st.sampled_from(_KEYS + ("*", "**"))


@st.composite
def _patterns(draw):
    """A random pattern plus the parameters/pushdown that go with it."""
    leaves = []
    taken: set[str] = set()
    parameters: dict[str, object] = {}
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        path = ".".join(draw(st.lists(_SEGMENTS, min_size=1, max_size=3)))
        if path in taken:
            continue
        taken.add(path)
        variable = draw(st.sampled_from([None, "v", "w"]))
        predicates = ()
        if draw(st.booleans()):
            op = draw(st.sampled_from(COMPARISONS))
            value = draw(_SCALARS)
            if draw(st.booleans()):
                name = f"p{len(parameters)}"
                parameters[name] = value
                value = Parameter(name)
            predicates = (Predicate(op=op, value=value),)
        leaves.append(PatternLeaf(path=path, variable=variable,
                                  predicates=predicates))
    pushdown = {}
    if draw(st.booleans()):
        pushdown = {"v": draw(_SCALARS)}
    return make_pattern(leaves), parameters, pushdown


def _store(documents) -> JSONDocumentStore:
    store = JSONDocumentStore("accel-hyp")
    for i, doc in enumerate(documents):
        store.add({"id": i, **doc})
    return store


def _scan(store, pattern, parameters=None, pushdown=None, limit=None):
    """The reference: every stored document in insertion order, matched
    one by one with the naive semantics, cut at ``limit``."""
    with store.reading() as read:
        rows = [row for _, document in read.items()
                for row in match_document(pattern, document, parameters, pushdown)]
    return rows if limit is None else rows[:limit]


def _match(store, pattern, **kwargs):
    """The matcher's rows, in one reading of ``store`` (a store or a snapshot)."""
    with store.reading() as read:
        return TreePatternMatcher(read).match(pattern, **kwargs)


def _both(store, pattern, **kwargs):
    return _scan(store, pattern, **kwargs), _match(store, pattern, **kwargs)


# ---------------------------------------------------------------------------
# Equivalence: matcher == reference scan, exactly
# ---------------------------------------------------------------------------

class TestEquivalence:
    @given(documents=_DOCUMENTS, spec=_patterns())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_patterns_match_reference(self, documents, spec):
        pattern, parameters, pushdown = spec
        store = _store(documents)
        reference, matched = _both(store, pattern,
                                   parameters=parameters,
                                   pushdown=pushdown)
        assert matched == reference

    @given(documents=_DOCUMENTS, spec=_patterns(),
           limit=st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_limits_match_reference(self, documents, spec, limit):
        pattern, parameters, pushdown = spec
        store = _store(documents)
        reference, matched = _both(store, pattern,
                                   parameters=parameters,
                                   pushdown=pushdown, limit=limit)
        assert matched == reference
        assert len(matched) <= limit

    def test_every_comparison_operator(self):
        store = JSONDocumentStore("ops")
        for i in range(12):
            store.add({"id": i, "n": {"likes": i % 6},
                       "tag": ["hot", "cold"][i % 2]})
        for op in COMPARISONS:
            pattern = make_pattern([
                PatternLeaf(path="n.likes", variable="l",
                            predicates=(Predicate(op=op, value=3),)),
                PatternLeaf(path="tag", variable="t"),
            ])
            reference, matched = _both(store, pattern)
            assert matched == reference
            assert reference  # every operator selects something here

    def test_a_pushed_down_value_aligns_a_predicated_leaf(self):
        """A leaf holding several values that pass its predicate binds the
        pushed-down one alone, whether or not its path has an index."""
        store = JSONDocumentStore("push")
        for i in range(6):
            store.add({"id": i, "tags": ["x", "y", f"t{i}"], "n": {"m": [i, i + 1]}})
        for text, pushdown in (('{ tags: ?v != "z" }', {"v": "y"}),
                               ("{ n.m: ?v >= 1, id: ?w }", {"v": 3}),
                               ("{ **.m: ?v > 0 }", {"v": 2})):
            reference, matched = _both(store, parse_pattern(text), pushdown=pushdown)
            assert matched == reference
            assert reference and all(row["v"] == pushdown["v"] for row in reference)

    def test_wildcard_axes_and_batch_calls(self):
        store = JSONDocumentStore("wild")
        for i in range(20):
            store.add({"id": i,
                       "a": {"b": {"c": i % 4}, "d": [{"c": 10 + i % 3}]},
                       "e": i})
        for text in ("{ **.c: ?v }", "{ a.*.c: ?v }", "{ a.**: ?v }",
                     "{ *.b.c: ?v, e: ?w }", '{ **.c: ?v > 1 }'):
            pattern = parse_pattern(text)
            reference, matched = _both(store, pattern)
            assert matched == reference
            assert reference
        pattern = parse_pattern("{ e: ?w, a.b.c: {low} }")
        calls = [({"low": k}, {}) for k in range(4)] + [({"low": 0}, {"w": 4})]
        matcher = TreePatternMatcher(store)
        batched = matcher.match_batch(pattern, calls)
        assert [BindingBatch(pattern.columns, rows).dicts() for rows in batched] == \
            [matcher.match(pattern, parameters=p, pushdown=push) for p, push in calls] == \
            [_scan(store, pattern, p, push) for p, push in calls]

    def test_a_json_answer_enters_the_mediator_as_one_binding_batch(self):
        store = JSONDocumentStore("cols")
        for i in range(6):
            store.add({"id": i, "a": {"b": i}, "c": f"t{i % 2}"})
        pattern = parse_pattern("{ a.b: ?x, c: ?y }")
        (batch,) = JSONSource("json://cols", store).execute_batch(JSONQuery(pattern), [{}])[0]
        assert isinstance(batch, BindingBatch)
        assert batch.columns == ("x", "y")
        assert batch.dicts() == TreePatternMatcher(store).match(pattern)


# ---------------------------------------------------------------------------
# Snapshots: pinned readers never see post-pin writes
# ---------------------------------------------------------------------------

class TestSnapshotIsolation:
    def test_a_pinned_reader_keeps_its_rows_after_inserts(self):
        store = JSONDocumentStore("pin")
        for i in range(6):
            store.add({"id": i, "a": {"b": i}})
        pattern = parse_pattern("{ a.b: ?v }")
        before = TreePatternMatcher(store).match(pattern)
        snap = store.snapshot()
        for i in range(6, 12):
            store.add({"id": i, "a": {"b": i}})
        assert _match(snap, pattern) == before == _scan(snap, pattern)
        assert len(TreePatternMatcher(store).match(pattern)) == 12

    @given(batches=st.lists(st.lists(
        st.dictionaries(st.sampled_from(_KEYS), _JSON, min_size=1, max_size=3),
        min_size=1, max_size=3), min_size=2, max_size=4),
        spec=_patterns())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_interleaved_inserts_leave_pins_untouched(self, batches, spec):
        pattern, parameters, pushdown = spec
        store = JSONDocumentStore("interleave")
        pinned = []
        next_id = 0
        for batch in batches:
            for doc in batch:
                store.add({"id": next_id, **doc})
                next_id += 1
            snap = store.snapshot()
            rows = _match(snap, pattern, parameters=parameters, pushdown=pushdown)
            pinned.append((snap, rows))
        # Every pin still answers exactly what it answered at pin time,
        # matched or scanned, despite all the writes that followed.
        for snap, rows in pinned:
            reference, matched = _both(snap, pattern,
                                       parameters=parameters,
                                       pushdown=pushdown)
            assert matched == rows
            assert reference == rows

    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("write"), st.lists(st.tuples(
            st.integers(min_value=0, max_value=5),
            st.dictionaries(st.sampled_from(_KEYS), _JSON, min_size=1, max_size=3)),
            min_size=1, max_size=3)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("snapshot"), st.booleans()),
        st.tuples(st.just("read"), st.integers(min_value=0, max_value=8))),
        min_size=2, max_size=12), spec=_patterns())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_a_pinned_reader_sees_its_version_under_any_interleaving(self, ops, spec):
        """Writes (inserts and upserts of ids 0-5), removals, snapshots
        and reads of the live store or of any snapshot, in any order: every
        snapshot answers from its own documents, whatever was read, written
        or upserted before or since."""
        pattern, parameters, pushdown = spec
        kwargs = {"parameters": parameters, "pushdown": pushdown}
        store = JSONDocumentStore("lineage")
        store.add({"id": 0, "a": 1})
        pinned = []
        for op, argument in ops:
            if op == "write":
                store.add_all({"id": i, **doc} for i, doc in argument)
            elif op == "remove":
                store.remove(str(argument))
            elif op == "snapshot":
                snap = store.snapshot()
                expected = _scan(snap, pattern, **kwargs)
                if argument:  # query it right away, or only after more writes
                    assert _match(snap, pattern, **kwargs) == expected
                pinned.append((snap, expected))
            else:
                readers = [store] + [snap for snap, _ in pinned]
                reader = readers[argument % len(readers)]
                assert _match(reader, pattern, **kwargs) == _scan(reader, pattern, **kwargs)
        reference, matched = _both(store, pattern, **kwargs)
        assert matched == reference
        for snap, expected in pinned:
            reference, matched = _both(snap, pattern, **kwargs)
            assert matched == reference == expected

    def test_a_removal_leaves_the_pin_whole(self):
        store = JSONDocumentStore("rm")
        for i in range(8):
            store.add({"id": i, "a": {"b": i}})
        pattern = parse_pattern("{ a.b: ?v }")
        snap = store.snapshot()
        assert len(TreePatternMatcher(store).match(pattern)) == 8
        store.remove("3")
        reference, matched = _both(store, pattern)
        assert matched == reference
        assert {row["v"] for row in matched} == {0, 1, 2, 4, 5, 6, 7}
        # The pre-removal snapshot still sees all eight documents.
        assert len(_match(snap, pattern)) == 8


# ---------------------------------------------------------------------------
# Deep documents: no recursion on the hot paths
# ---------------------------------------------------------------------------

class TestDeepDocuments:
    def test_depth_10k_document_indexes_and_matches(self):
        document: dict = {"id": "deep"}
        node = document
        for _ in range(10_000):
            child: dict = {}
            node["d"] = child
            node = child
        node["x"] = 1
        store = JSONDocumentStore("deep")
        store.add(document)  # indexing must not recurse
        pattern = parse_pattern("{ **.x: ?v }")
        reference, matched = _both(store, pattern)
        assert matched == reference == [{"v": 1}]


# ---------------------------------------------------------------------------
# Copy-on-write path indexes
# ---------------------------------------------------------------------------

class TestPathIndexCOW:
    def test_snapshot_shares_postings_until_first_mutation(self):
        """A snapshot reads the live index while nothing is written; a
        write after it changes the live index in place (the parent copied
        every posting set for the snapshot's sake) and the snapshot then
        reads the index as it stood."""
        store = JSONDocumentStore("cow")
        for i in range(5):
            store.add({"id": i, "a": f"k{i % 2}"})
        live = store.index_for("a")
        postings = live.postings
        snap = store.snapshot()
        with snap.reading() as pinned:
            assert pinned is store
        store.add({"id": 99, "a": "fresh"})
        assert store.index_for("a") is live
        assert live.postings is postings
        with snap.reading() as pinned:
            frozen = pinned.index_for("a")
            assert frozen is not live and frozen.documents() == {"0", "1", "2", "3", "4"}
            assert frozen.lookup_eq("fresh") == set()
            assert frozen.lookup_eq("k0") == {"0", "2", "4"}
        assert store.index_for("a").lookup_eq("fresh") == {"99"}

    def test_presence_follows_the_values_a_document_still_holds(self):
        """A document's values at one path come and go together: its
        buckets shrink back to 1-tuples and the count drops once — on the
        live index and on a snapshot's copy of it, neither disturbed by
        the other's writes."""
        from repro.json import PathIndex

        live = PathIndex("tags")
        live.add("d", ["red", "blue", "red"])
        live.add("e", ["red"])
        assert live.postings == {"red": {"d", "e"}, "blue": ("d",)}
        assert live.document_count == 2 and live.occurrences == 4
        live.remove("d", ["red", "blue", "red"])
        assert live.postings == {"red": ("e",)} and live.documents() == {"e"}
        assert live.document_count == 1 and live.occurrences == 1

        store = JSONDocumentStore("tags")
        store.add_all([{"id": "d", "tags": ["red", "blue"]}, {"id": "e", "tags": ["red"]}])
        snap = store.snapshot()
        store.add({"id": "d", "other": True})
        with snap.reading() as pinned:
            twin = copy.deepcopy(pinned.index_for("tags"))
        assert twin.documents() == {"d", "e"} and twin.lookup_eq("red") == {"d", "e"}
        twin.remove("d", ["red", "blue"])
        assert twin.documents() == {"e"} and twin.postings == {"red": ("e",)}
        with snap.reading() as pinned:
            assert pinned.index_for("tags").documents() == {"d", "e"}
        assert store.index_for("tags").documents() == {"e"}
        assert store.index_for("tags").document_count == 1

    def test_remove_does_not_scan_the_postings(self):
        """No clocks: removing one document may not walk every distinct
        value of the path (it once did, per removed leaf, to decide presence)."""
        from repro.json import PathIndex

        class CountingPostings(dict):
            scans = 0

            def values(self):
                CountingPostings.scans += 1
                return super().values()

        index = PathIndex("user.id")
        for number in range(50):
            index.add(f"doc{number}", [number])
        index.postings = CountingPostings(index.postings)
        for number in range(50):
            index.remove(f"doc{number}", [number])
        assert CountingPostings.scans == 0
        assert not index.document_count and not index.postings

    def test_upsert_keeps_presence_exact_through_the_store(self):
        store = JSONDocumentStore("upsert")
        store.add({"id": 1, "tags": ["a", "b"]})
        store.add({"id": 2, "tags": ["a"]})
        snap = store.snapshot()
        store.add({"id": 1, "tags": ["b"]})
        assert store.index_for("tags").documents() == {"1", "2"}
        assert store.index_for("tags").lookup_eq("a") == {"2"}
        store.add({"id": 1, "other": True})
        assert store.index_for("tags").documents() == {"2"}
        with snap.reading() as pinned:
            assert pinned.index_for("tags").documents() == {"1", "2"}
            assert pinned.index_for("tags").lookup_eq("a") == {"1", "2"}


# ---------------------------------------------------------------------------
# The catalog's estimates, read off the path indexes
# ---------------------------------------------------------------------------

class TestAxisStatistics:
    def _q(self, estimate: float, actual: float) -> float:
        lo, hi = sorted((max(estimate, 1e-9), max(actual, 1e-9)))
        return hi / lo

    def test_a_structural_estimate_counts_the_values_a_path_fans_out_to(self):
        store = JSONDocumentStore("axis")
        store.add({"id": 0, "t": [1, 2, 3]})
        store.add({"id": 1, "t": [4]})
        store.add({"id": 2, "u": "no-t"})
        query = JSONQuery.from_text("{ t: ?v }")
        source = JSONSource("json://axis", store)
        assert source.estimate(query) == len(source.execute(query)) == 4

    def test_catalog_qerror_within_two_on_bench_workload(self):
        store = JSONDocumentStore("tweets")
        for i in range(120):
            doc = {"id": i, "author": f"a{i % 12}", "likes": i % 60,
                   "topic": "politics" if i < 90 else "other"}
            if i % 3 == 0:
                doc["geo"] = {"lat": 48.8, "lon": 2.3}
            store.add(doc)
        source = JSONSource("json://tweets", store)
        catalog = StatisticsCatalog()
        for text in ("{ author: ?a, topic: ?t }",
                     "{ geo.lat: ?lat }",
                     "{ author: ?a, geo.lat: ?lat, likes: ?l }",
                     "{ topic: ?t, likes: ?l }"):
            query = JSONQuery.from_text(text)
            actual = len(source.execute(query))
            assert actual > 0
            assert self._q(catalog.estimate(source, query), actual) <= 2.0
