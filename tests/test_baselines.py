"""Unit tests for the warehouse baseline and the reference plan's options."""

from dataclasses import fields

import pytest

from repro.baselines import RDFWarehouse, naive_options
from repro.core import MixedInstance, PlannerOptions
from repro.errors import MixedQueryError
from repro.relational import Database


@pytest.fixture
def instance(politics_graph, small_database, small_tweet_store):
    inst = MixedInstance(graph=politics_graph, name="mini")
    inst.register_relational("sql://insee", small_database)
    inst.register_fulltext("solr://tweets", small_tweet_store)
    return inst


@pytest.fixture
def qsia(instance):
    return (instance.builder("qSIA", head=["t", "id"])
            .graph("SELECT ?id WHERE { ?x ttn:position ttn:headOfState . "
                   "?x ttn:twitterAccount ?id }")
            .fulltext("tweetContains", source="solr://tweets",
                      query="entities.hashtags:sia2016",
                      fields={"t": "text", "id": "user.screen_name"})
            .build())


class TestWarehouseExport:
    def test_export_counts_every_source(self, instance):
        warehouse = RDFWarehouse(instance)
        stats = warehouse.export()
        assert stats.exported_triples == len(warehouse.graph)
        assert set(stats.triples_per_source) == {"#glue", "sql://insee", "solr://tweets"}
        assert stats.export_seconds > 0

    def test_relational_rows_become_triples(self, instance):
        warehouse = RDFWarehouse(instance)
        warehouse.export()
        predicate = warehouse.column_predicate("sql://insee", "departments", "name")
        names = {t.obj.value for t in warehouse.graph if t.predicate == predicate}
        assert "Paris" in names

    def test_fulltext_documents_become_triples(self, instance):
        warehouse = RDFWarehouse(instance)
        warehouse.export()
        predicate = warehouse.field_predicate("solr://tweets", "entities.hashtags")
        hashtags = {t.obj.value for t in warehouse.graph if t.predicate == predicate}
        assert "sia2016" in hashtags

    def test_text_fields_exported_as_stems_too(self, instance):
        warehouse = RDFWarehouse(instance)
        warehouse.export()
        predicate = warehouse.term_predicate("solr://tweets", "text")
        stems = {t.obj.value for t in warehouse.graph if t.predicate == predicate}
        assert any(s.startswith("solidarit") for s in stems)

    def test_warehouse_is_larger_than_mediator_metadata(self, instance):
        warehouse = RDFWarehouse(instance)
        stats = warehouse.export()
        assert stats.exported_triples > len(instance.graph)


class TestWarehouseQueries:
    def test_qsia_same_answers_as_mediator(self, instance, qsia):
        mediator_rows = {tuple(sorted(r.items())) for r in instance.execute(qsia).rows}
        warehouse = RDFWarehouse(instance)
        warehouse.export()
        warehouse_rows = {tuple(sorted(r.items())) for r in warehouse.execute(qsia).rows}
        assert mediator_rows == warehouse_rows

    def test_sql_atom_translation(self, instance):
        cmq = (instance.builder("q", head=["dept", "rate"])
               .sql("stats", source="sql://insee",
                    sql="SELECT dept_code AS dept, rate AS rate FROM unemployment WHERE year = 2015")
               .build())
        warehouse = RDFWarehouse(instance)
        warehouse.export()
        rows = warehouse.execute(cmq).rows
        mediator_rows = instance.execute(cmq).rows
        assert {r["dept"] for r in rows} == {r["dept"] for r in mediator_rows}

    def test_join_across_models_in_warehouse(self, instance):
        cmq = (instance.builder("q", head=["id", "t"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .fulltext("tweets", source="solr://tweets", query="*:*",
                         fields={"t": "text", "id": "user.screen_name"})
               .build())
        warehouse = RDFWarehouse(instance)
        warehouse.export()
        assert len(warehouse.execute(cmq)) == len(instance.execute(cmq))

    def test_dynamic_source_atoms_unsupported(self, instance):
        cmq = (instance.builder("q", head=["rate"])
               .graph("SELECT ?src WHERE { ?x ttn:twitterAccount ?src }")
               .sql("stats", source_variable="src",
                    sql="SELECT rate AS rate FROM unemployment")
               .build())
        warehouse = RDFWarehouse(instance)
        warehouse.export()
        with pytest.raises(MixedQueryError):
            warehouse.execute(cmq)

    def test_non_equality_sql_where_unsupported(self, instance):
        cmq = (instance.builder("q", head=["rate"])
               .sql("stats", source="sql://insee",
                    sql="SELECT rate AS rate FROM unemployment WHERE rate > 8")
               .build())
        warehouse = RDFWarehouse(instance)
        warehouse.export()
        with pytest.raises(MixedQueryError):
            warehouse.execute(cmq)


class TestWarehouseSQLTranslation:
    """The SQL sub-query is read off its parsed template: what it translates
    answers as the mediator does, and what it cannot is refused."""

    @pytest.fixture
    def table_instance(self, politics_graph):
        database = Database("db")
        database.create_table_from_rows("t", [
            {"a": 1, "b": 2, "name": "Saint and Co"},
            {"a": 3, "b": 4, "name": "Other"},
            {"a": 5, "b": 6, "name": "Third"}])
        inst = MixedInstance(graph=politics_graph, name="table")
        inst.register_relational("sql://db", database)
        return inst

    def _cmq(self, instance, where):
        return (instance.builder("q", head=["n"])
                .sql("names", source="sql://db", sql=f"SELECT name AS n FROM t WHERE {where}")
                .build())

    def test_disjunctive_where_is_refused_not_answered_empty(self, table_instance):
        cmq = self._cmq(table_instance, "a = 1 OR b = 4")
        assert len(table_instance.execute(cmq)) == 2
        warehouse = RDFWarehouse(table_instance)
        warehouse.export()
        with pytest.raises(MixedQueryError, match="names"):
            warehouse.execute(cmq)

    def test_string_constant_holding_a_keyword_answers_as_the_mediator(self, table_instance):
        cmq = self._cmq(table_instance, "name = 'Saint and Co'")
        warehouse = RDFWarehouse(table_instance)
        warehouse.export()
        rows = warehouse.execute(cmq).rows
        assert rows == table_instance.execute(cmq).rows == [{"n": "Saint and Co"}]


class TestReferenceOptions:
    def test_planner_options_are_the_four_deployment_knobs(self):
        assert [field.name for field in fields(PlannerOptions)] == [
            "bind_batch_size", "result_cache", "plan_cache", "cost_based"]

    def test_naive_options_disable_everything(self):
        assert naive_options() == PlannerOptions(cost_based=False)

    def test_all_strategies_answer_identically(self, instance, qsia):
        rows = [{tuple(sorted(r.items()))
                 for r in instance.execute(qsia, options=options).rows}
                for options in (PlannerOptions(), naive_options())]
        assert rows[0] == rows[1]

    def test_bind_join_strategy_fetches_fewer_rows(self, instance):
        cmq = (instance.builder("q", head=["id", "t"])
               .graph("SELECT ?id WHERE { ?x ttn:position ttn:headOfState . "
                      "?x ttn:twitterAccount ?id }")
               .fulltext("tweets", source="solr://tweets", query="*:*",
                         fields={"t": "text", "id": "user.screen_name"})
               .build())
        fast = instance.execute(cmq)
        naive = instance.execute(cmq, options=naive_options())
        assert fast.trace.total_rows_fetched() <= naive.trace.total_rows_fetched()
        assert {tuple(sorted(r.items())) for r in fast.rows} == \
               {tuple(sorted(r.items())) for r in naive.rows}
