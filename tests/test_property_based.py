"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.digest import BloomFilter, EquiWidthHistogram, ValueSetSummary
from repro.engine import BatchBindJoin, Distinct, HashJoin, MaterializedScan
from repro.fulltext import Analyzer, FieldConfig, FullTextStore
from repro.rdf import BGPQuery, Graph, Literal, Triple, URI, evaluate_bgp, pattern, var
from repro.rdf.entailment import saturate, saturate_delta
from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.relational import Database

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_local_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
_uris = _local_names.map(lambda s: URI("http://ex.org/" + s))
_literals = st.text(alphabet=string.ascii_letters + " éàç", min_size=0, max_size=12).map(Literal)
_subjects = _uris
_predicates = st.sampled_from([URI("http://ex.org/p"), URI("http://ex.org/q"),
                               URI("http://ex.org/r")])
_objects = st.one_of(_uris, _literals)
_triples = st.builds(Triple, _subjects, _predicates, _objects)
_triple_sets = st.lists(_triples, min_size=0, max_size=40)

_rows = st.lists(
    st.fixed_dictionaries({
        "a": st.integers(min_value=0, max_value=5),
        "b": st.text(alphabet="xyz", min_size=1, max_size=2),
        "c": st.one_of(st.none(), st.integers(min_value=-10, max_value=10)),
    }),
    min_size=0, max_size=30,
)


#: Rows of mixed schemas over a small domain (many repeated bindings).
_mixed_rows = st.lists(
    st.dictionaries(st.sampled_from(["a", "b", "c"]),
                    st.integers(min_value=0, max_value=2)),
    min_size=0, max_size=25,
)

#: Source rows: always an ``a``, sometimes a ``b`` (shared with the left
#: side, so it can conflict), sometimes a ``d``.
_right_rows = st.lists(
    st.fixed_dictionaries(
        {"a": st.integers(min_value=0, max_value=2)},
        optional={"b": st.integers(min_value=0, max_value=2),
                  "d": st.text(alphabet="xyz", min_size=1, max_size=2)}),
    min_size=0, max_size=12,
)


#: One NaN object: equal to nothing, but the same key as itself.
_NAN = float("nan")


def _join_side(columns: list[str]):
    """Join inputs over ``columns``: rows of one header (any subset of the
    columns, so a key may be absent from every row) or of mixed headers;
    cells from a small domain holding ``None`` and one shared NaN."""
    cells = st.sampled_from([0, 1, 2, None, _NAN])
    one_header = st.sets(st.sampled_from(columns)).flatmap(
        lambda header: st.lists(st.fixed_dictionaries({c: cells for c in sorted(header)}),
                                max_size=8))
    mixed = st.lists(st.dictionaries(st.sampled_from(columns), cells), max_size=8)
    return one_header | mixed


class _Hinted(MaterializedScan):
    """A scan whose size hint is given, to choose the side a join builds."""

    def __init__(self, rows, hint):
        super().__init__(rows)
        self._hint = hint

    def estimated_size(self):
        return self._hint


def _row_key(row: dict) -> list[tuple[str, str]]:
    """Order-stable, type-safe comparison key for binding rows."""
    return sorted((k, f"{type(v).__name__}:{v}") for k, v in row.items())


# ---------------------------------------------------------------------------
# RDF invariants
# ---------------------------------------------------------------------------

class TestRDFProperties:
    @given(_triple_sets)
    @settings(max_examples=50, deadline=None)
    def test_graph_add_is_idempotent_set_semantics(self, triples):
        graph = Graph()
        graph.add_all(triples)
        graph.add_all(triples)
        assert len(graph) == len(set(triples))

    @given(_triple_sets)
    @settings(max_examples=50, deadline=None)
    def test_match_by_predicate_partitions_graph(self, triples):
        graph = Graph(triples=triples)
        total = sum(graph.count(pattern("?s", predicate, "?o"))
                    for predicate in graph.predicates())
        assert total == len(graph)

    @given(_triple_sets)
    @settings(max_examples=30, deadline=None)
    def test_ntriples_round_trip(self, triples):
        graph = Graph(triples=triples)
        reparsed = parse_ntriples(serialize_ntriples(graph))
        assert set(reparsed) == set(graph)

    @given(_triple_sets)
    @settings(max_examples=30, deadline=None)
    def test_saturation_is_monotone_and_idempotent(self, triples):
        graph = Graph(triples=triples)
        saturated, _ = saturate(graph)
        assert set(graph) <= set(saturated)
        twice, stats = saturate(saturated)
        assert len(twice) == len(saturated)
        assert stats.implicit_triples == 0

    @given(_triple_sets)
    @settings(max_examples=30, deadline=None)
    def test_bgp_single_pattern_matches_graph_scan(self, triples):
        graph = Graph(triples=triples)
        query = BGPQuery(head=(), patterns=(pattern("?s", "?p", "?o"),))
        rows = evaluate_bgp(query, graph)
        assert len(rows) == len(graph)


# ---------------------------------------------------------------------------
# Engine invariants
# ---------------------------------------------------------------------------

class TestEngineProperties:
    @given(_join_side(["a", "b", "c"]), _join_side(["a", "b", "d"]),
           st.sampled_from([None, [], ["a"], ["b"], ["a", "b"], ["b", "a"]]),
           st.booleans(), st.sampled_from([None, ["d", "a", "z"], ["c", "b"]]))
    @settings(max_examples=300, deadline=None)
    def test_hash_join_equals_nested_loop_semantics(self, left, right, keys, build_left,
                                                    columns):
        """Natural keys and explicit ones (narrower than the shared
        columns: the right value wins), mixed headers, a key absent from
        some rows (``None`` on both sides), a shared NaN, either side
        building, and the projected output: the probe-major nested loop's
        rows, in its order when the build side has one header."""
        hints = (0, 1) if build_left else (None, None)
        hash_rows = HashJoin(_Hinted(left, hints[0]), _Hinted(right, hints[1]),
                             keys=keys, columns=columns).rows()
        if keys is None:
            keys = sorted({c for row in left for c in row} & {c for row in right for c in row})
        probe, build = (right, left) if build_left else (left, right)
        reference = [{**b, **p} if build_left else {**p, **b} for p in probe for b in build
                     if all(p.get(k) is b.get(k) or p.get(k) == b.get(k) for k in keys)]
        if columns is not None:
            reference = [{c: row.get(c) for c in columns} for row in reference]
        if len({frozenset(row) for row in build}) <= 1:
            assert hash_rows == reference
        else:
            assert sorted(map(_row_key, hash_rows)) == sorted(map(_row_key, reference))

    @given(_rows)
    @settings(max_examples=50, deadline=None)
    def test_distinct_is_idempotent_and_preserves_membership(self, rows):
        once = Distinct(MaterializedScan(rows)).rows()
        twice = Distinct(MaterializedScan(once)).rows()
        assert once == twice
        assert all(row in rows for row in once)

    # (The Aggregate count property went away with ``Aggregate``.)
    @given(_mixed_rows, _right_rows, st.integers(min_value=1, max_value=5),
           st.sampled_from([None, ["a"], ["a", "b"]]))
    @settings(max_examples=200, deadline=None)
    def test_batch_bind_join_equals_nested_loop(self, left, right, batch_size, keys):
        """Left rows of mixed schemas and repeated bindings, right rows
        that may contradict the left row on ``b``, and a ``fetch_batch``
        handing out the same list objects again and again."""
        by_a: dict[object, list[dict]] = {}
        for row in right:
            by_a.setdefault(row["a"], []).append(row)
        nothing: list[dict] = []
        before = repr((by_a, nothing))

        def fetch(binding):
            return by_a.get(binding.get("a"), nothing)

        reference = []
        for left_row in left:
            for right_row in fetch(left_row):
                if all(left_row[k] == v for k, v in right_row.items() if k in left_row):
                    reference.append({**left_row, **right_row})

        join = BatchBindJoin(MaterializedScan(left),
                             lambda bindings: [fetch(b) for b in bindings],
                             keys=keys, batch_size=batch_size)
        assert join.rows() == reference
        assert repr((by_a, nothing)) == before
        wanted = keys if keys is not None else ["a", "b", "c"]
        assert join.bindings_shipped == len(
            {tuple((k, row[k]) for k in wanted if k in row) for row in left})


# ---------------------------------------------------------------------------
# Digest invariants
# ---------------------------------------------------------------------------

class TestDigestProperties:
    @given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10),
                    min_size=1, max_size=200),
           st.integers(min_value=2, max_value=32))
    @settings(max_examples=40, deadline=None)
    def test_bloom_filter_has_no_false_negatives(self, values, bits):
        bloom = BloomFilter(expected_items=len(values), bits_per_value=bits)
        bloom.add_all(values)
        assert all(bloom.might_contain(v) for v in values)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=0, max_size=200),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=40, deadline=None)
    def test_histogram_total_range_estimate_matches_count(self, values, buckets):
        histogram = EquiWidthHistogram(values, buckets=buckets)
        assert histogram.estimate_range(None, None) <= len(values) + 1e-6
        if values:
            assert histogram.estimate_range(None, None) >= len(values) * 0.99

    @given(st.lists(st.text(alphabet=string.ascii_lowercase + string.digits,
                            min_size=1, max_size=8), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_value_set_summary_membership_complete(self, values):
        summary = ValueSetSummary(values, exact_limit=10)
        assert all(summary.might_contain(v) for v in values)
        assert all(summary.matches_keyword(v) for v in values)

    @given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
                    min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_overlap_with_self_is_total(self, values):
        summary = ValueSetSummary(values)
        assert summary.overlap_estimate(summary) == 1.0


# ---------------------------------------------------------------------------
# Relational and full-text invariants
# ---------------------------------------------------------------------------

class TestSubstrateProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                              st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)),
                    min_size=0, max_size=50))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sql_count_and_filter_consistent(self, pairs):
        db = Database("prop")
        db.execute("CREATE TABLE t (id INTEGER, label TEXT)")
        for index, (value, label) in enumerate(pairs):
            db.execute(f"INSERT INTO t (id, label) VALUES ({value}, '{label}')")
        total = db.query("SELECT COUNT(*) AS n FROM t")[0]["n"]
        assert total == len(pairs)
        threshold = 500
        below = db.query(f"SELECT COUNT(*) AS n FROM t WHERE id < {threshold}")[0]["n"]
        above = db.query(f"SELECT COUNT(*) AS n FROM t WHERE id >= {threshold}")[0]["n"]
        assert below + above == total

    @given(st.lists(st.text(alphabet=string.ascii_lowercase + " ", min_size=1, max_size=40),
                    min_size=0, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_fulltext_store_indexes_every_document(self, texts):
        store = FullTextStore("prop", [FieldConfig("text", "text")], id_field="id")
        store.add_all({"id": i, "text": text} for i, text in enumerate(texts))
        assert len(store) == len(texts)
        assert store.search("*:*", limit=None).total == len(texts)

    @given(st.text(alphabet=string.ascii_letters + " éèàç'#-", min_size=0, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_analyzer_output_is_normalised(self, text):
        analyzer = Analyzer()
        for token in analyzer.stems(text):
            assert token == token.lower()
            assert len(token) >= 2 or token.startswith("#")


# ---------------------------------------------------------------------------
# Incremental saturation and cross-query caching
# ---------------------------------------------------------------------------

_classes = st.sampled_from([URI(f"http://ex.org/C{i}") for i in range(4)])
_schema_triples = st.one_of(
    st.builds(Triple, _classes,
              st.just(URI("http://www.w3.org/2000/01/rdf-schema#subClassOf")),
              _classes),
    st.builds(Triple, _predicates,
              st.just(URI("http://www.w3.org/2000/01/rdf-schema#subPropertyOf")),
              _predicates),
    st.builds(Triple, _predicates,
              st.just(URI("http://www.w3.org/2000/01/rdf-schema#domain")),
              _classes),
    st.builds(Triple, _predicates,
              st.just(URI("http://www.w3.org/2000/01/rdf-schema#range")),
              _classes),
)
_typing_triples = st.builds(
    Triple, _subjects,
    st.just(URI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")), _classes)
_entailment_triples = st.one_of(_triples, _schema_triples, _typing_triples)
_entailment_sets = st.lists(_entailment_triples, min_size=0, max_size=30)


class TestIncrementalSaturationProperties:
    @given(_entailment_sets, _entailment_sets)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_delta_saturation_equals_from_scratch(self, base, delta):
        """saturate(G) then saturate_delta(Δ) == saturate(G ∪ Δ), for any
        random mix of data, typing and schema triples."""
        graph = Graph("base")
        graph.add_all(base)
        incremental, _ = saturate(graph)
        saturate_delta(incremental, delta)

        merged = Graph("merged")
        merged.add_all(base)
        merged.add_all(delta)
        scratch, _ = saturate(merged)
        assert set(incremental) == set(scratch)

    @given(_entailment_sets, st.lists(_entailment_triples, min_size=1, max_size=10),
           st.lists(_entailment_triples, min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_successive_deltas_with_maintained_schema(self, base, first, second):
        from repro.rdf import RDFSchema

        graph = Graph("base")
        graph.add_all(base)
        incremental, _ = saturate(graph)
        schema = RDFSchema.from_graph(incremental)
        saturate_delta(incremental, first, schema=schema)
        saturate_delta(incremental, second, schema=schema)

        merged = Graph("merged")
        merged.add_all(base)
        merged.add_all(first)
        merged.add_all(second)
        scratch, _ = saturate(merged)
        assert set(incremental) == set(scratch)


_handles = st.lists(
    st.tuples(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
              st.integers(min_value=0, max_value=999)),
    min_size=0, max_size=12, unique_by=lambda pair: pair[0])


class TestCachedAnswerProperties:
    @given(_handles)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cached_cmq_equals_cold_answer_across_all_models(self, handles):
        """Warm-cache answers equal cold-cache answers for a CMQ against
        each of the four source models, on random instances."""
        from repro.core import MixedInstance, PlannerOptions
        from repro.json.store import JSONDocumentStore
        from repro.rdf import triple

        glue = Graph("glue")
        database = Database("db")
        database.execute("CREATE TABLE accounts (handle TEXT, score INTEGER)")
        store = FullTextStore("ft", [FieldConfig("text", "text"),
                                     FieldConfig("handle", "keyword")],
                              default_field="text")
        json_store = JSONDocumentStore("js")
        rdf_graph = Graph("rdf")
        for index, (handle, score) in enumerate(handles):
            glue.add(triple(f"ttn:P{index}", "ttn:twitterAccount", handle))
            database.execute("INSERT INTO accounts (handle, score) "
                             f"VALUES ('{handle}', {score})")
            store.add({"id": index, "text": f"post by {handle}", "handle": handle})
            json_store.add({"id": str(index), "handle": handle, "score": score})
            rdf_graph.add(triple(f"ttn:A{index}", "ttn:handle", handle))
            rdf_graph.add(triple(f"ttn:A{index}", "ttn:score", score))

        instance = MixedInstance(graph=glue, name="prop", entailment=False)
        instance.register_relational("sql://db", database)
        instance.register_fulltext("solr://ft", store)
        instance.register_json("json://js", json_store)
        instance.register_rdf("rdf://rdf", rdf_graph)

        queries = [
            (instance.builder("sql", head=["id", "s"])
             .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
             .sql("scores", source="sql://db",
                  sql="SELECT handle AS id, score AS s FROM accounts "
                      "WHERE handle = {id}")
             .build()),
            (instance.builder("ft", head=["id", "t"])
             .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
             .fulltext("posts", source="solr://ft", query="handle:{id}",
                       fields={"t": "text", "id": "handle"})
             .build()),
            (instance.builder("js", head=["id", "s"])
             .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
             .json("docs", source="json://js",
                   pattern="{ handle: ?id, score: ?s }")
             .build()),
            (instance.builder("rdf", head=["id", "s"])
             .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
             .rdf("scores", source="rdf://rdf",
                  sparql_text="SELECT ?id ?s WHERE { ?a ttn:handle ?id . "
                              "?a ttn:score ?s }")
             .build()),
        ]
        no_cache = PlannerOptions(result_cache=False, plan_cache=False)
        for cmq in queries:
            cold = instance.execute(cmq, options=no_cache)
            first = instance.execute(cmq)
            warm = instance.execute(cmq)
            expected = sorted(map(_row_key, cold.rows))
            assert sorted(map(_row_key, first.rows)) == expected
            assert sorted(map(_row_key, warm.rows)) == expected
