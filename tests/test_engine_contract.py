"""The surface the repository benchmark's micro pass and span recorder call.

``benchmarks/e2e/layers.py`` times the engine, the cache proxy and the
wire codec through their public functions, with dict rows, and
``benchmarks/e2e/spans.py`` wraps class attributes by name.  A change
that breaks one of these shows up here in a second, not in the
pipeline's benchmark run.
"""

from __future__ import annotations

import copy

from repro.cache.repair import RepairEngine
from repro.cache.results import CachedSource, SubQueryResultCache
from repro.core.sources import (
    FullTextSource,
    JSONSource,
    RDFSource,
    RelationalSource,
    SQLQuery,
)
from repro.engine.batch import dict_rows
from repro.engine.iterators import BatchBindJoin, Distinct, HashJoin, MaterializedScan
from repro.relational import Database
from repro.remote import RemoteSource, protocol

LEFT = [{"id": "a", "group": "left"}, {"id": "b", "group": "right"},
        {"id": "c", "group": "left"}]
RIGHT = [{"id": "a", "t": "one"}, {"id": "a", "t": "two"}, {"id": "b", "t": "three"}]


class TestMicroEngineSurface:
    def test_scans_take_dict_rows_and_joins_return_subscriptable_dicts(self):
        left_scan, right_scan = MaterializedScan(LEFT), MaterializedScan(RIGHT)
        joined = HashJoin(left_scan, right_scan).rows()
        assert type(joined) is list and all(type(row) is dict for row in joined)
        assert sorted((row["id"], row["group"], row["t"]) for row in joined) == [
            ("a", "left", "one"), ("a", "left", "two"), ("b", "right", "three")]
        assert HashJoin(left_scan, right_scan).rows() == joined  # scans are reusable

    def test_bind_join_fetch_batch_hands_out_shared_dict_row_lists(self):
        by_id: dict[object, list] = {}
        for row in RIGHT:
            by_id.setdefault(row["id"], []).append(row)
        before = copy.deepcopy(by_id)
        identities = {key: [id(row) for row in rows] for key, rows in by_id.items()}
        shipped: list[list[dict]] = []

        def fetch_batch(bindings: list[dict]) -> list[list[dict]]:
            shipped.append(bindings)
            return [by_id.get(binding["id"], []) for binding in bindings]

        left_scan = MaterializedScan(LEFT)
        for _ in range(2):  # the same operator inputs, timed over and over
            rows = BatchBindJoin(left_scan, fetch_batch).rows()
            assert [(row["id"], row["group"], row["t"]) for row in rows] == [
                ("a", "left", "one"), ("a", "left", "two"), ("b", "right", "three")]
        assert all(type(binding) is dict for batch in shipped for binding in batch)
        # The lists and the dicts it was handed are the caller's: untouched.
        assert by_id == before
        assert {key: [id(row) for row in rows] for key, rows in by_id.items()} == identities

    def test_distinct_over_a_scan_of_joined_rows(self):
        joined = HashJoin(MaterializedScan(LEFT), MaterializedScan(RIGHT)).rows()
        scan = MaterializedScan(joined + joined)
        assert Distinct(scan).rows() == joined
        assert Distinct(scan).rows() == joined


class TestMicroCacheSurface:
    def test_cached_source_execute_returns_dict_rows_on_miss_and_hit(self):
        database = Database("db")
        database.create_table_from_rows("datasets", [{"topic": "chomage", "t": "unemployment"}])
        source = RelationalSource("sql://registry", database)
        query = SQLQuery("SELECT topic AS topic, t AS t FROM datasets")
        cache = SubQueryResultCache(64)
        cached = CachedSource(source, cache)
        bare = source.execute(query, {})
        missed = cached.execute(query, {})
        hit = cached.execute(query, {})
        assert missed == hit == bare == [{"topic": "chomage", "t": "unemployment"}]
        assert all(type(row) is dict for row in missed + hit)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        hit[0]["topic"] = "mutated"  # the caller's copy, not the entry
        assert cached.execute(query, {}) == bare
        assert list(map(dict_rows, cached.execute_batch(query, [{}, {}]))) == [bare, bare]
        cache.clear()
        assert cached.execute(query, {}) == bare and cache.stats.misses == 2


class TestMicroRemoteSurface:
    def test_row_codec_and_framing(self):
        rows = [{"t": "texte é", "id": "a", "n": 3, "x": None, "tags": ["a", ["b"]]}]
        payload = {"ok": True, "rows": [protocol.encode_row(row) for row in rows]}
        assert [protocol.decode_row(row)
                for row in protocol.roundtrip(payload)["rows"]] == rows
        assert isinstance(protocol.dump_message(payload), bytes)


class TestSpanRecorderSurface:
    def test_wrapped_entry_points_are_plain_class_attributes(self):
        for cls in (RDFSource, RelationalSource, FullTextSource, JSONSource, RemoteSource):
            for attribute in ("execute", "execute_batch"):
                assert callable(cls.__dict__[attribute]), (cls.__name__, attribute)
        assert callable(RepairEngine.__dict__["repair"])

    def test_a_wrapper_patched_on_its_class_sees_every_source_call(self, monkeypatch):
        """The mediator reaches a wrapper through ``execute_batch`` only; it
        must go through the class's ``execute_batch`` attribute, once per
        call, or the recorder loses the call."""
        database = Database("db")
        database.create_table_from_rows("t", [{"k": 1}])
        source = RelationalSource("sql://t", database)
        query = SQLQuery("SELECT k AS k FROM t")
        seen = []
        for attribute in ("execute", "execute_batch"):
            original = RelationalSource.__dict__[attribute]

            def traced(*args, _original=original, _name=attribute, **kwargs):
                seen.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(RelationalSource, attribute, traced)
        cached = CachedSource(source, SubQueryResultCache(8))
        assert [batch.dicts() for batch in cached.execute_batch(query, [{}])[0]] == [[{"k": 1}]]
        assert len(cached.execute_batch(query, [{"k": 1}, {"k": 2}])) == 2
        assert seen == ["execute_batch", "execute_batch"]
