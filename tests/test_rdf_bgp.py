"""Unit tests for BGP (conjunctive SPARQL) evaluation and answers over G∞."""

import pytest

from repro.errors import RDFError
from repro.rdf import (
    BGPQuery,
    EvaluationTrace,
    Graph,
    Literal,
    answer_bgp,
    evaluate_ask,
    evaluate_bgp,
    pattern,
    triple,
    uri,
    var,
)
from repro.rdf.bgp import solve


@pytest.fixture
def query_head_of_state():
    return BGPQuery.create(
        head=["id"],
        patterns=[("?x", "ttn:position", "ttn:headOfState"),
                  ("?x", "ttn:twitterAccount", "?id")],
        name="qG",
    )


class TestBGPConstruction:
    def test_empty_body_rejected(self):
        with pytest.raises(RDFError):
            BGPQuery(head=(), patterns=())

    def test_head_variable_must_appear_in_body(self):
        with pytest.raises(RDFError):
            BGPQuery.create(head=["missing"], patterns=[("?x", "ttn:p", "?y")])

    def test_output_variables_default_to_all(self):
        q = BGPQuery.create(head=[], patterns=[("?x", "ttn:p", "?y")])
        assert {v.name for v in q.output_variables()} == {"x", "y"}

    def test_variables_collects_body_variables(self, query_head_of_state):
        assert {v.name for v in query_head_of_state.variables()} == {"x", "id"}

    def test_bind_substitutes_constants(self, query_head_of_state):
        bound = query_head_of_state.bind({var("id"): Literal("fhollande")})
        assert all(var("id") not in p.variables() for p in bound.patterns)


class TestEvaluation:
    def test_single_pattern(self, politics_graph):
        q = BGPQuery.create(head=["n"], patterns=[("?p", "foaf:name", "?n")])
        names = {row[var("n")].value for row in evaluate_bgp(q, politics_graph)}
        assert names == {"François Hollande", "Marine LePen"}

    def test_join_across_patterns(self, politics_graph, query_head_of_state):
        rows = evaluate_bgp(query_head_of_state, politics_graph)
        assert len(rows) == 1
        assert rows[0][var("id")] == Literal("fhollande")

    def test_no_match_returns_empty(self, politics_graph):
        q = BGPQuery.create(head=["x"], patterns=[("?x", "ttn:position", "ttn:senator")])
        assert evaluate_bgp(q, politics_graph) == []

    def test_projection_removes_other_variables(self, politics_graph, query_head_of_state):
        rows = evaluate_bgp(query_head_of_state, politics_graph)
        assert set(rows[0].keys()) == {var("id")}

    def test_duplicate_projections_removed(self, politics_graph):
        q = BGPQuery.create(head=["t"], patterns=[("?p", "rdf:type", "?t"),
                                                  ("?p", "ttn:twitterAccount", "?a")])
        rows = evaluate_bgp(q, politics_graph)
        assert len(rows) == 1  # both politicians project to the same type

    def test_initial_binding_restricts_results(self, politics_graph):
        q = BGPQuery.create(head=["n"], patterns=[("?p", "foaf:name", "?n"),
                                                  ("?p", "ttn:twitterAccount", "?id")])
        rows = evaluate_bgp(q, politics_graph,
                            initial_binding={var("id"): Literal("mlepen")})
        assert [row[var("n")].value for row in rows] == ["Marine LePen"]

    def test_cartesian_product_when_disconnected(self, politics_graph):
        q = BGPQuery.create(head=["a", "b"],
                            patterns=[("?x", "ttn:position", "?a"),
                                      ("?y", "ttn:memberOf", "?b")])
        rows = evaluate_bgp(q, politics_graph)
        assert len(rows) == 4  # 2 positions x 2 parties

    def test_trace_records_pattern_order_and_sizes(self, politics_graph, query_head_of_state):
        trace = EvaluationTrace()
        evaluate_bgp(query_head_of_state, politics_graph, trace=trace)
        assert len(trace.pattern_order) == 2
        assert len(trace.intermediate_sizes) == 2
        # The selective pattern (position = headOfState) is evaluated first.
        assert "headOfState" in str(trace.pattern_order[0])

    def test_ask_true_and_false(self, politics_graph):
        assert evaluate_ask([pattern("?x", "ttn:position", "ttn:headOfState")], politics_graph)
        assert not evaluate_ask([pattern("?x", "ttn:position", "ttn:senator")], politics_graph)


class TestAnswerOverSaturation:
    def test_answer_includes_implicit_types(self, politics_graph, politics_schema):
        politics_graph.add_all(politics_schema.triples())
        q = BGPQuery.create(head=["x"], patterns=[("?x", "rdf:type", "ttn:person")])
        # Plain evaluation misses the implicit types...
        assert evaluate_bgp(q, politics_graph) == []
        # ...the answer (over G∞) finds both politicians.
        rows = answer_bgp(q, politics_graph)
        assert {row[var("x")] for row in rows} == {uri("ttn:POL1"), uri("ttn:POL2")}

    def test_answer_includes_subproperty_inference(self, politics_graph, politics_schema):
        politics_graph.add_all(politics_schema.triples())
        q = BGPQuery.create(head=["x", "y"],
                            patterns=[("?x", "ttn:affiliatedWith", "?y")])
        rows = answer_bgp(q, politics_graph)
        assert len(rows) == 2

    def test_answer_with_external_schema(self, politics_graph, politics_schema):
        q = BGPQuery.create(head=["x"], patterns=[("?x", "rdf:type", "ttn:party")])
        rows = answer_bgp(q, politics_graph, politics_schema)
        # rdfs:range of memberOf types both parties (already typed explicitly too).
        assert len(rows) == 2


class TestDeltaSeeds:
    """``solve`` with a delta: only the solutions using one of its triples."""

    @staticmethod
    def seeded(graph, query, delta):
        with graph.reading() as store:
            rows = solve(query.patterns, store, (), [()], query.output_variables(), delta)
        return sorted(tuple(store.dictionary.terms[i].value for i in row) for row in rows)

    def test_a_delta_no_pattern_fits_builds_no_graph(self, monkeypatch, query_head_of_state):
        graph = Graph("g")
        graph.add_all([triple("ttn:P1", "ttn:position", "ttn:headOfState"),
                       triple("ttn:P1", "ttn:twitterAccount", "fhollande"),
                       triple("ttn:E1", "ttn:about", "ttn:P1")])
        added = []
        add_all = Graph.add_all
        monkeypatch.setattr(Graph, "add_all",
                            lambda self, triples: added.append(self.name) or add_all(self, triples))
        unrelated = [triple("ttn:E1", "ttn:about", "ttn:P1"),
                     triple("ttn:P1", "ttn:position", "ttn:minister")]
        assert self.seeded(graph, query_head_of_state, unrelated) == []
        assert added == []
        fitting = [triple("ttn:P1", "ttn:twitterAccount", "fhollande"), *unrelated]
        assert self.seeded(graph, query_head_of_state, fitting) == [("fhollande",)]
        assert added == ["delta"]
