"""A warm bind join pays per flush: one key function, one probe, one row path.

* The binding key is built by one compiled function.  It must equal the
  key the per-binding path used to build — the canonical form of the
  formal bindings dict, kept below as the reference — for every shape
  of binding: renamed and swapped variables, constants, values equal
  under Python equality but rendered apart at a source, containers and
  unhashable values.  An entry inserted by a miss or by a repair is hit
  by the bind join's probe.
* A 121-binding flush that hits everywhere is one probe: one lock
  acquisition on the LRU, no canonicalisation, no formal-bindings dict
  and no per-binding key compilation.
* A stale key is offered to the repair engine once per flush.
* ``BindingBatch.dicts`` builds exactly what ``dict(zip())`` builds.
"""

from __future__ import annotations

import copy
import keyword
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.keys import CanonicalQuery, canonical_query
from repro.cache.lru import CacheStats
from repro.cache.repair import RepairEngine
from repro.cache.results import CachedSource, SubQueryResultCache
from repro.core import CMQBuilder, MixedInstance, PlannerOptions
from repro.core.cmq import SourceAtom
from repro.core import deltas
from repro.fulltext.source import FullTextQuery
from repro.json.source import JSONQuery
from repro.rdf.source import RDFQuery
from repro.relational.source import SQLQuery
from repro.datasets import DemoConfig, build_demo_instance
from repro.datasets.loader import TWEETS_URI, party_vocabulary_query
from repro.engine import batch as batch_module
from repro.engine.batch import MAX_ROW_CONSTRUCTORS, BindingBatch, dict_rows
from repro.rdf import Graph, triple
from repro.relational import Database


# ---------------------------------------------------------------------------
# The per-binding key, as it was built before the keyer was compiled
# ---------------------------------------------------------------------------

def reference_formal_bindings(atom: SourceAtom, bindings: dict) -> dict:
    formal = dict(atom.constants)
    reverse = {actual: formal_name for formal_name, actual in atom.renames.items()}
    for formal_name in atom.query.output_variables() | atom.query.required_parameters():
        if formal_name in formal:
            continue
        actual = atom.renames.get(formal_name, formal_name)
        if actual in bindings:
            formal[formal_name] = bindings[actual]
    for actual, value in bindings.items():
        formal_name = reverse.get(actual)
        if formal_name is not None and formal_name not in formal:
            formal[formal_name] = value
    return formal


def _reference_tagged(value: object) -> tuple:
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_reference_tagged(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((_reference_tagged(item) for item in value), key=repr))
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted((key, _reference_tagged(item))
                                        for key, item in value.items()))
    return (type(value).__name__, value)


def reference_binding_key(canon: CanonicalQuery, bindings: dict):
    try:
        key = tuple(sorted((canon.rename.get(name, name), _reference_tagged(value))
                           for name, value in bindings.items()))
        hash(key)
    except TypeError:
        return None
    return key


QUERIES = [
    SQLQuery(sql="SELECT h AS out FROM t WHERE a = {p} AND b = {q}"),
    FullTextQuery.create("user.screen_name:{p} text:{q}",
                         {"out": "text", "p": "user.screen_name"}),
    RDFQuery.from_text("SELECT ?p ?out WHERE { ?p ttn:knows ?q . ?q ttn:says ?out }"),
]
#: CMQ variable names: the formals' own names (so renames can swap
#: them) plus names no formal has.
NAMES = ("p", "q", "out", "x", "y")
SCALARS = (st.sampled_from([True, False, 1, 0, 1.0, 0.0, "1", "", None])
           | st.integers(-3, 3) | st.text(max_size=2)
           | st.floats(allow_nan=False, width=16))
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=2) | st.lists(inner, max_size=2).map(tuple)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=2)
                   | st.frozensets(st.integers(0, 3), max_size=2)),
    max_leaves=4) | st.just(bytearray(b"raw")) | st.just([[bytearray(b"deep")]])


class TestOneKeyFunction:
    @given(query=st.sampled_from(QUERIES), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_the_compiled_key_is_the_per_binding_key(self, query, data):
        formals = sorted(query.output_variables() | query.required_parameters()) + ["extra"]
        renames = data.draw(st.dictionaries(st.sampled_from(formals), st.sampled_from(NAMES),
                                            max_size=4))
        constants = data.draw(st.dictionaries(st.sampled_from(formals), VALUES, max_size=2))
        bindings = data.draw(st.dictionaries(st.sampled_from(NAMES), VALUES, max_size=5))
        atom = SourceAtom("a", query, source="sql://t", renames=renames, constants=constants)
        canon = canonical_query(query)
        formal = reference_formal_bindings(atom, bindings)
        expected = reference_binding_key(canon, formal)
        assert atom.formal_bindings(bindings) == formal
        # The bind join's path (value tuple, CMQ names) and the proxy's
        # (a formal dict) reach the same key through the same keyer.
        assert atom.binding_keyer(canon, tuple(bindings))(tuple(bindings.values())) == expected
        assert canon.key_of(formal) == expected

    def test_equal_values_rendered_apart_get_apart_keys(self):
        canon = canonical_query(QUERIES[0])
        keyer = canon.keyer([("p", 0)])
        keys = [keyer((value,)) for value in (True, 1, 1.0, "1", None, [1], (1,))]
        assert len(set(keys)) == len(keys)
        assert keyer((bytearray(b"raw"),)) is None
        assert keyer(([{"k": bytearray(b"raw")}],)) is None
        assert canon.keyer([("p", 0)], {"q": bytearray(b"raw")})(("v",)) is None


# ---------------------------------------------------------------------------
# Entries inserted by a miss or a repair are hit by the probe
# ---------------------------------------------------------------------------

HANDLES = [f"u{i}" for i in range(8)]


def _profiles() -> tuple[Database, CachedSource, SourceAtom]:
    database = Database("db")
    database.create_table_from_rows(
        "profiles", [{"handle": h, "followers": i} for i, h in enumerate(HANDLES)])
    instance = MixedInstance(graph=Graph("g"), name="profiles", entailment=False)
    source = instance.register_relational("sql://profiles", database)
    cache = SubQueryResultCache()
    proxy = CachedSource(source, cache, stats=CacheStats(), repair=RepairEngine(cache))
    query = SQLQuery(sql="SELECT handle AS id, followers AS f FROM profiles "
                         "WHERE handle = {id}")
    # The CMQ calls the formal ``id`` ``who``: keys go through the renaming.
    atom = SourceAtom("profile", query, source="sql://profiles", renames={"id": "who"})
    return database, proxy, atom


def _peek(proxy: CachedSource, atom: SourceAtom, handles: list[str]):
    answers, _ = proxy.peek(atom, canonical_query(atom.query),
                            [(("who",), (handle,)) for handle in handles])
    return [None if batches is None else dict_rows(batches) for batches in answers]


class TestEntriesAreHitByTheProbe:
    def test_an_entry_a_miss_inserted_is_hit(self):
        _, proxy, atom = _profiles()
        proxy.execute_batch(atom.query, [{"id": h} for h in HANDLES])
        assert proxy.local_stats.misses == len(HANDLES)
        hits = _peek(proxy, atom, HANDLES)
        assert hits == [[{"who": h, "f": i}] for i, h in enumerate(HANDLES)]
        assert proxy.local_stats.hits == len(HANDLES)

    def test_an_entry_a_repair_inserted_is_hit(self):
        database, proxy, atom = _profiles()
        proxy.execute_batch(atom.query, [{"id": h} for h in HANDLES])
        database.table("profiles").insert({"handle": "u1", "followers": 100})
        repaired = _peek(proxy, atom, HANDLES)
        assert repaired[1] == [{"who": "u1", "f": 1}, {"who": "u1", "f": 100}]
        assert proxy.repair.stats.repaired == len(HANDLES)
        # The repaired entries now serve the per-call path as plain hits.
        misses, hits = proxy.local_stats.misses, proxy.cache.stats.hits
        answered = list(map(dict_rows,
                            proxy.execute_batch(atom.query, [{"id": h} for h in HANDLES])))
        assert answered[1] == [{"id": "u1", "f": 1}, {"id": "u1", "f": 100}]
        assert proxy.local_stats.misses == misses
        assert proxy.cache.stats.hits == hits + len(HANDLES)


# ---------------------------------------------------------------------------
# A warm flush is one probe
# ---------------------------------------------------------------------------

class _CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self, lock):
        self.lock = lock
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)

    def acquire(self, *args, **kwargs):
        self.acquired += 1
        return self.lock.acquire(*args, **kwargs)

    def release(self):
        return self.lock.release()


ACCOUNTS = 121


def _accounts_instance() -> MixedInstance:
    graph = Graph("glue")
    for i in range(ACCOUNTS):
        graph.add(triple(f"ttn:P{i}", "ttn:twitterAccount", f"acct{i}"))
    database = Database("db")
    database.create_table_from_rows(
        "profiles", [{"handle": f"acct{i}", "followers": i} for i in range(ACCOUNTS)])
    instance = MixedInstance(graph=graph, name="accounts", entailment=False)
    instance.register_relational("sql://profiles", database)
    return instance


class TestAWarmFlushIsOneProbe:
    def test_an_all_hit_flush_takes_one_lock_and_keys_nothing_anew(self, monkeypatch):
        instance = _accounts_instance()
        cmq = (CMQBuilder("followers", head=["id", "f"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .sql("profile", source="sql://profiles",
                    sql="SELECT handle AS id, followers AS f FROM profiles "
                        "WHERE handle = {id}")
               .build())
        options = PlannerOptions(bind_batch_size=1024)
        cold = instance.execute(cmq, options=options)
        assert len(cold.rows) == ACCOUNTS
        instance.execute(cmq, options=options)

        lock = _CountingLock(instance.cache.results.entries._lock)
        monkeypatch.setattr(instance.cache.results.entries, "_lock", lock)
        calls: Counter = Counter()
        inside = []

        def spy(owner, attribute):
            original = getattr(owner, attribute, None)
            if original is None:
                return

            def counted(*args, **kwargs):
                if inside:
                    calls[attribute] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, attribute, counted)

        for owner, attribute in ((SourceAtom, "formal_bindings"),
                                 (CanonicalQuery, "keyer"), (CanonicalQuery, "key_of"),
                                 (CanonicalQuery, "binding_key")):
            spy(owner, attribute)
        # A sub-query's canonical form is derived once per query object:
        # the warm run must derive none anew.
        for query_type in (RDFQuery, SQLQuery, FullTextQuery, JSONQuery):
            monkeypatch.setattr(query_type, "derive_canonical",
                                lambda query: calls.update(["derive_canonical"]))
        flushes = []
        original_peek = CachedSource.peek

        def peek(self, *args):
            inside.append(True)
            before = lock.acquired
            try:
                return original_peek(self, *args)
            finally:
                inside.pop()
                flushes.append(lock.acquired - before)
        monkeypatch.setattr(CachedSource, "peek", peek)

        warm = instance.execute(cmq, options=options)
        assert flushes == [1]
        assert calls == Counter()
        # The 121 bindings of the flush, plus the glue atom's one probe.
        assert warm.trace.cache_hits == ACCOUNTS + 1 and warm.trace.cache_misses == 0
        assert not [call for call in warm.trace.calls if call.atom == "profile"]
        assert warm.rows == cold.rows


# ---------------------------------------------------------------------------
# A stale key is offered to repair once per flush
# ---------------------------------------------------------------------------

class TestRepairIsOfferedEachKeyOnce:
    def test_a_key_that_falls_back_is_not_offered_again_at_dispatch(self, monkeypatch):
        demo = build_demo_instance(DemoConfig(politicians=24, weeks=2, seed=42))
        instance = demo.instance
        cmq = party_vocabulary_query(demo, "france")
        instance.execute(cmq)
        instance.execute(cmq)
        store = instance.source(TWEETS_URI).store
        upserts = [copy.deepcopy(doc.fields) for doc in store.documents()[:5]]
        for document in upserts:
            document["retweet_count"] = document.get("retweet_count", 0) + 100
        # A log budget of one batch (items plus replaced copies), too
        # short for the span: every stale key falls back.
        monkeypatch.setattr(deltas, "MAX_DELTA_ITEMS", 2 * len(upserts))
        store.add_all(upserts)
        store.add_all(upserts)

        offered: list[tuple] = []
        original = RepairEngine.repair

        def repair(self, source, version, query, canon, keys, bases, binding):
            offered.extend(keys)
            return original(self, source, version, query, canon, keys, bases, binding)
        monkeypatch.setattr(RepairEngine, "repair", repair)
        stats = instance.cache.repair.stats
        attempts, fallbacks = stats.attempts, sum(stats.fallbacks.values())
        after = instance.execute(cmq)

        assert offered and len(offered) == len(set(offered))
        assert stats.attempts - attempts == len(offered)
        assert sum(stats.fallbacks.values()) - fallbacks == len(offered)
        instance.clear_caches()
        assert sorted(map(str, instance.execute(cmq).rows)) == sorted(map(str, after.rows))


class TestRepairAsksBindingsOnlyOfPriorEntries:
    def test_a_cold_party_cmq_builds_no_binding_for_repair(self, monkeypatch):
        """A probe hands repair a binding only for a key with a prior
        entry: none on a cold CMQ, one per repair attempt after a write."""
        demo = build_demo_instance(DemoConfig(politicians=24, weeks=2, seed=42))
        instance = demo.instance
        cmq = party_vocabulary_query(demo, "france")
        asked: list[int] = []
        probe = CachedSource._probe

        def counting(self, version, query, canon, keys, binding):
            def counted(i):
                asked.append(i)
                return binding(i)
            return probe(self, version, query, canon, keys, counted)

        monkeypatch.setattr(CachedSource, "_probe", counting)
        assert instance.cache.repair is not None
        instance.clear_caches()
        cold = instance.execute(cmq)
        assert cold.rows and asked == []

        store = instance.source(TWEETS_URI).store
        upserts = [copy.deepcopy(doc.fields) for doc in store.documents()[:5]]
        for document in upserts:
            document["retweet_count"] = document.get("retweet_count", 0) + 100
        store.add_all(upserts)
        stats = instance.cache.repair.stats
        attempts = stats.attempts
        after = instance.execute(cmq)
        assert asked and len(asked) == stats.attempts - attempts
        instance.clear_caches()
        assert sorted(map(str, instance.execute(cmq).rows)) == sorted(map(str, after.rows))


# ---------------------------------------------------------------------------
# One compiled dict-row constructor per header
# ---------------------------------------------------------------------------

ODD_NAMES = (list(keyword.kwlist[:6]) + ["a b", "1x", "-", "", "'", '"', "'''", "\\",
                                         "é", "日本", " ", "rows", "make", "k0", "v0",
                                         "__builtins__"])
ROW_VALUES = st.one_of(st.integers(), st.text(max_size=3), st.none(),
                       st.lists(st.integers(), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                       st.sets(st.integers(), max_size=2))


def _as_reference(columns, rows) -> list[list]:
    return [list(dict(zip(columns, row)).items()) for row in rows]


class TestRowConstructor:
    @pytest.mark.parametrize("width", [0, 1, 300])
    def test_wide_and_empty_headers(self, width):
        columns = tuple(f"c{i}" for i in range(width))
        rows = [tuple(range(r, r + width)) for r in range(3)]
        made = BindingBatch(columns, rows).dicts()
        assert [list(row.items()) for row in made] == _as_reference(columns, rows)

    @given(columns=st.lists(st.sampled_from(ODD_NAMES) | st.text(max_size=4), max_size=8),
           data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_dicts_are_dict_zip(self, columns, data):
        columns = tuple(columns)
        rows = data.draw(st.lists(st.tuples(*[ROW_VALUES] * len(columns)), max_size=4))
        batch = BindingBatch(columns, rows)
        made = batch.dicts()
        assert [list(row.items()) for row in made] == _as_reference(columns, rows)
        # Fresh dicts on every call: the caller's to mutate.
        for row in made:
            row["mutated"] = True
        assert [list(row.items()) for row in batch.dicts()] == _as_reference(columns, rows)

    def test_the_memo_is_bounded(self):
        for i in range(MAX_ROW_CONSTRUCTORS + 20):
            assert BindingBatch((f"bound{i}",), [(i,)]).dicts() == [{f"bound{i}": i}]
        assert batch_module._row_constructor.cache_info().currsize <= MAX_ROW_CONSTRUCTORS
