"""Unit tests for RDFS schema extraction and saturation (G∞)."""

import pytest

from repro.rdf import (
    Graph,
    RDF_TYPE,
    RDFSchema,
    implicit_triples,
    saturate,
    saturate_delta,
    triple,
    uri,
)
from repro.rdf.terms import Triple


class TestSchemaExtraction:
    def test_observe_subclass(self, politics_graph):
        schema = RDFSchema()
        assert schema.observe(triple("ttn:politician", "rdfs:subClassOf", "ttn:person"))
        assert uri("ttn:person") in schema.subclasses[uri("ttn:politician")]

    def test_observe_non_schema_triple_returns_false(self):
        schema = RDFSchema()
        assert not schema.observe(triple("ttn:a", "foaf:name", "Alice"))

    def test_from_graph_extracts_all_four_statement_kinds(self):
        g = Graph()
        g.add(triple("ttn:politician", "rdfs:subClassOf", "ttn:person"))
        g.add(triple("ttn:worksFor", "rdfs:subPropertyOf", "ttn:paidBy"))
        g.add(triple("ttn:foundedIn", "rdfs:domain", "ttn:organization"))
        g.add(triple("ttn:worksFor", "rdfs:range", "ttn:organization"))
        schema = RDFSchema.from_graph(g)
        assert not schema.is_empty()
        assert len(schema.classes()) >= 2
        assert len(schema.properties()) >= 2

    def test_transitive_superclasses(self):
        schema = RDFSchema()
        schema.add_subclass(uri("ttn:deputy"), uri("ttn:politician"))
        schema.add_subclass(uri("ttn:politician"), uri("ttn:person"))
        supers = schema.superclasses(uri("ttn:deputy"))
        assert supers == {uri("ttn:politician"), uri("ttn:person")}

    def test_subclasses_of_inverse_closure(self):
        schema = RDFSchema()
        schema.add_subclass(uri("ttn:deputy"), uri("ttn:politician"))
        schema.add_subclass(uri("ttn:politician"), uri("ttn:person"))
        subs = schema.subclasses_of(uri("ttn:person"))
        assert uri("ttn:deputy") in subs and uri("ttn:politician") in subs

    def test_triples_round_trip(self, politics_schema):
        triples = politics_schema.triples()
        rebuilt = RDFSchema.from_triples(triples)
        assert rebuilt.subclasses == politics_schema.subclasses
        assert rebuilt.domains == politics_schema.domains


class TestSaturation:
    def setup_method(self):
        # The running example of the paper's §2.1.
        self.graph = Graph("lemonde")
        self.graph.add(triple("ttn:LeMonde", "ttn:foundedIn", "1944"))
        self.graph.add(triple("ttn:Samuel", "ttn:worksFor", "ttn:LeMonde"))
        self.graph.add(triple("ttn:Samuel", "rdf:type", "ttn:Journalist"))
        self.graph.add(triple("ttn:Journalist", "rdfs:subClassOf", "ttn:Employee"))
        self.graph.add(triple("ttn:worksFor", "rdfs:subPropertyOf", "ttn:paidBy"))
        self.graph.add(triple("ttn:foundedIn", "rdfs:domain", "ttn:Organization"))
        self.graph.add(triple("ttn:worksFor", "rdfs:range", "ttn:Organization"))

    def test_rdfs7_subproperty_propagation(self):
        saturated, _ = saturate(self.graph)
        assert triple("ttn:Samuel", "ttn:paidBy", "ttn:LeMonde") in saturated

    def test_rdfs9_type_propagation(self):
        saturated, _ = saturate(self.graph)
        assert triple("ttn:Samuel", "rdf:type", "ttn:Employee") in saturated

    def test_rdfs2_domain_typing(self):
        saturated, _ = saturate(self.graph)
        assert triple("ttn:LeMonde", "rdf:type", "ttn:Organization") in saturated

    def test_rdfs3_range_typing(self):
        saturated, _ = saturate(self.graph)
        # LeMonde is the object of worksFor whose range is Organization.
        assert triple("ttn:LeMonde", "rdf:type", "ttn:Organization") in saturated

    def test_explicit_triples_preserved(self):
        saturated, stats = saturate(self.graph)
        for t in self.graph:
            assert t in saturated
        assert stats.explicit_triples == len(self.graph)

    def test_stats_count_implicit_triples(self):
        saturated, stats = saturate(self.graph)
        assert stats.implicit_triples == len(saturated) - len(self.graph)
        assert stats.implicit_triples > 0
        assert stats.total_triples == len(saturated)

    def test_original_graph_unchanged(self):
        before = len(self.graph)
        saturate(self.graph)
        assert len(self.graph) == before

    def test_implicit_triples_helper(self):
        implicit = implicit_triples(self.graph)
        assert triple("ttn:Samuel", "ttn:paidBy", "ttn:LeMonde") in implicit
        assert all(t not in self.graph for t in implicit)

    def test_saturation_is_idempotent(self):
        saturated, _ = saturate(self.graph)
        twice, stats = saturate(saturated)
        assert len(twice) == len(saturated)
        assert stats.implicit_triples == 0

    def test_subclass_transitivity_rdfs11(self):
        self.graph.add(triple("ttn:Employee", "rdfs:subClassOf", "ttn:Person"))
        saturated, _ = saturate(self.graph)
        assert triple("ttn:Journalist", "rdfs:subClassOf", "ttn:Person") in saturated
        assert triple("ttn:Samuel", "rdf:type", "ttn:Person") in saturated

    def test_external_schema_merged(self):
        schema = RDFSchema()
        schema.add_subclass(uri("ttn:Employee"), uri("ttn:Person"))
        saturated, _ = saturate(self.graph, schema)
        assert triple("ttn:Samuel", "rdf:type", "ttn:Person") in saturated

    def test_literal_objects_not_typed_by_range(self):
        from repro.rdf import Literal

        g = Graph()
        g.add(triple("ttn:p", "rdfs:range", "ttn:Organization"))
        g.add(triple("ttn:x", "ttn:p", "a literal value"))
        saturated, _ = saturate(g)
        assert not any(isinstance(t.subject, Literal) for t in saturated)
        # rdfs3 must not fire for a literal object, and no domain is declared,
        # so saturation derives no rdf:type triple at all.
        assert [t for t in saturated if t.predicate == RDF_TYPE] == []

    def test_empty_graph_saturation(self):
        saturated, stats = saturate(Graph())
        assert len(saturated) == 0
        assert stats.implicit_triples == 0


class TestIncrementalSaturation:
    """`saturate_delta` must agree with from-scratch saturation."""

    def setup_method(self):
        self.graph = Graph("lemonde")
        self.graph.add(triple("ttn:LeMonde", "ttn:foundedIn", "1944"))
        self.graph.add(triple("ttn:Samuel", "ttn:worksFor", "ttn:LeMonde"))
        self.graph.add(triple("ttn:Samuel", "rdf:type", "ttn:Journalist"))
        self.graph.add(triple("ttn:Journalist", "rdfs:subClassOf", "ttn:Employee"))
        self.graph.add(triple("ttn:worksFor", "rdfs:subPropertyOf", "ttn:paidBy"))
        self.graph.add(triple("ttn:foundedIn", "rdfs:domain", "ttn:Organization"))
        self.graph.add(triple("ttn:worksFor", "rdfs:range", "ttn:Organization"))

    def assert_delta_equals_scratch(self, delta):
        incremental, _ = saturate(self.graph)
        saturate_delta(incremental, delta)
        merged = self.graph.copy("merged")
        merged.add_all(delta)
        scratch, _ = saturate(merged)
        assert set(incremental) == set(scratch)

    def test_data_delta(self):
        self.assert_delta_equals_scratch([
            triple("ttn:Marie", "ttn:worksFor", "ttn:Figaro"),
            triple("ttn:Marie", "rdf:type", "ttn:Journalist"),
        ])

    def test_new_subclass_edge_activates_existing_types(self):
        self.assert_delta_equals_scratch([
            triple("ttn:Employee", "rdfs:subClassOf", "ttn:Person"),
        ])

    def test_new_subproperty_edge_activates_existing_triples(self):
        self.assert_delta_equals_scratch([
            triple("ttn:paidBy", "rdfs:subPropertyOf", "ttn:linkedTo"),
        ])

    def test_new_domain_and_range_activate_existing_triples(self):
        self.assert_delta_equals_scratch([
            triple("ttn:paidBy", "rdfs:domain", "ttn:Worker"),
            triple("ttn:paidBy", "rdfs:range", "ttn:Payer"),
        ])

    def test_mixed_schema_and_data_delta(self):
        self.assert_delta_equals_scratch([
            triple("ttn:Marie", "ttn:freelancesFor", "ttn:Figaro"),
            triple("ttn:freelancesFor", "rdfs:subPropertyOf", "ttn:worksFor"),
            triple("ttn:Figaro", "rdf:type", "ttn:Newspaper"),
            triple("ttn:Newspaper", "rdfs:subClassOf", "ttn:Organization"),
        ])

    def test_subclass_cycle(self):
        self.assert_delta_equals_scratch([
            triple("ttn:Employee", "rdfs:subClassOf", "ttn:Journalist"),
        ])

    def test_delta_already_entailed_is_a_no_op(self):
        saturated, _ = saturate(self.graph)
        before = len(saturated)
        stats = saturate_delta(saturated, [
            triple("ttn:Samuel", "ttn:paidBy", "ttn:LeMonde"),  # already implicit
        ])
        assert len(saturated) == before
        assert stats.rounds == 0

    def test_empty_delta(self):
        saturated, _ = saturate(self.graph)
        stats = saturate_delta(saturated, [])
        assert stats.implicit_triples == 0

    def test_one_absorbed_batch_moves_the_closure_once_per_round(self):
        """Each fixpoint round is one write batch of G∞: the delta a batch
        derives is a chain of at most ``rounds`` journal records."""
        saturated, _ = saturate(self.graph)
        before = saturated.version
        delta = [triple("ttn:Marie", "ttn:worksFor", "ttn:Figaro"),
                 triple("ttn:Marie", "rdf:type", "ttn:Journalist")]
        stats = saturate_delta(saturated, delta)
        assert 0 < saturated.version - before <= stats.rounds
        records = saturated.deltas_since(before)
        assert len(records) == saturated.version - before
        derived = {t for record in records for t in record.items}
        assert set(delta) < derived
        assert triple("ttn:Marie", "ttn:paidBy", "ttn:Figaro") in derived

    def test_maintained_schema_threads_through_deltas(self):
        saturated, _ = saturate(self.graph)
        schema = RDFSchema.from_graph(saturated)
        saturate_delta(saturated, [triple("ttn:Employee", "rdfs:subClassOf", "ttn:Person")],
                       schema=schema)
        # The maintained schema saw the new edge: a later data delta uses it.
        saturate_delta(saturated, [triple("ttn:Anna", "rdf:type", "ttn:Journalist")],
                       schema=schema)
        assert triple("ttn:Anna", "rdf:type", "ttn:Person") in saturated


class TestRDFSourceStaleness:
    """Regression: the saturation cache must track versions, not sizes."""

    def _source(self):
        from repro.rdf.source import RDFSource
        graph = Graph("src")
        graph.add(triple("ttn:Journalist", "rdfs:subClassOf", "ttn:Employee"))
        graph.add(triple("ttn:Samuel", "rdf:type", "ttn:Journalist"))
        return RDFSource("rdf://src", graph, entailment=True)

    def test_equal_size_mutation_is_not_served_stale(self):
        from repro.rdf.source import RDFQuery
        query = RDFQuery.from_text("SELECT ?x WHERE { ?x rdf:type ttn:Employee }")
        source = self._source()
        assert source.execute(query)  # saturating query
        source.graph.remove(triple("ttn:Samuel", "rdf:type", "ttn:Journalist"))
        source.graph.add(triple("ttn:Anna", "rdf:type", "ttn:Journalist"))
        rows = source.execute(query)
        assert [str(row["x"]).rsplit("#", 1)[-1] for row in rows] == ["Anna"]

    def test_removal_triggers_full_recompute(self):
        source = self._source()
        saturated = source.effective_graph()
        assert triple("ttn:Samuel", "rdf:type", "ttn:Employee") in saturated
        source.graph.remove(triple("ttn:Samuel", "rdf:type", "ttn:Journalist"))
        saturated = source.effective_graph()
        assert triple("ttn:Samuel", "rdf:type", "ttn:Employee") not in saturated

    def test_out_of_band_addition_is_absorbed_incrementally(self):
        source = self._source()
        first = source.effective_graph()
        source.graph.add(triple("ttn:Anna", "rdf:type", "ttn:Journalist"))
        second = source.effective_graph()
        assert second is first  # maintained in place, not recomputed
        assert triple("ttn:Anna", "rdf:type", "ttn:Employee") in second

    def test_add_triples_maintains_saturation(self):
        source = self._source()
        source.effective_graph()
        added = source.add_triples([triple("ttn:Anna", "rdf:type", "ttn:Journalist"),
                                    triple("ttn:Anna", "rdf:type", "ttn:Journalist")])
        assert added == 1
        assert triple("ttn:Anna", "rdf:type", "ttn:Employee") in source.effective_graph()

    def test_version_follows_graph(self):
        source = self._source()
        before = source.version()
        source.graph.add(triple("ttn:x", "ttn:p", "ttn:y"))
        assert source.version() == before + 1

    def test_the_closure_says_what_a_raw_span_added_to_it(self):
        """ΔG∞ of a raw span the lineage stood at both ends of: what the
        span derived, entailed triples included; None for any other."""
        source = self._source()
        source.effective_graph()
        pre = source.version()
        source.add_triples([triple("ttn:Anna", "rdf:type", "ttn:Journalist")])
        source.add_triples([triple("ttn:Bob", "rdf:type", "ttn:Journalist")])
        assert source.closure.delta(pre, source.version()) is None  # not absorbed yet
        source.effective_graph()
        assert set(source.closure.delta(pre, source.version())) == {
            triple(f"ttn:{name}", "rdf:type", f"ttn:{cls}")
            for name in ("Anna", "Bob") for cls in ("Journalist", "Employee")}
        assert source.closure.delta(pre + 1, source.version()) is None  # jumped over
