"""Unit tests for CMQ construction, atoms, templates and the textual syntax."""

import pytest

from repro.core import (
    AtomTemplateRegistry,
    CMQBuilder,
    ConjunctiveMixedQuery,
    GLUE_SOURCE,
    RDFQuery,
    SourceAtom,
    parse_cmq,
)
from repro.fulltext.source import FullTextQuery
from repro.relational.source import SQLQuery
from repro.engine.batch import BindingBatch, dict_rows
from repro.errors import MixedQueryError, ParseError


@pytest.fixture
def registry():
    reg = AtomTemplateRegistry()
    reg.register_graph_bgp(
        "qG",
        "SELECT ?id WHERE { ?x ttn:position ttn:headOfState . ?x ttn:twitterAccount ?id }",
        parameters=("id",),
    )
    reg.register_fulltext(
        "tweetContains",
        query="entities.hashtags:{tag}",
        fields={"t": "text", "id": "user.screen_name"},
        parameters=("t", "id", "tag"),
        default_source="solr://tweets",
    )
    reg.register_sql(
        "deptPopulation",
        sql="SELECT code AS dept, population AS pop FROM departments",
        parameters=("dept", "pop"),
        default_source="sql://insee",
    )
    return reg


class TestSourceAtom:
    def test_requires_some_source(self):
        q = RDFQuery.from_text("SELECT ?x WHERE { ?x ?p ?o }")
        with pytest.raises(MixedQueryError):
            SourceAtom(name="a", query=q)

    def test_source_and_variable_are_exclusive(self):
        q = RDFQuery.from_text("SELECT ?x WHERE { ?x ?p ?o }")
        with pytest.raises(MixedQueryError):
            SourceAtom(name="a", query=q, source="rdf://x", source_variable="d")

    def test_output_variables_renamed_and_constants_removed(self):
        q = FullTextQuery.create("entities.hashtags:{tag}", {"t": "text", "id": "user.screen_name"})
        atom = SourceAtom(name="tweetContains", query=q, source="solr://tweets",
                          renames={"id": "account"}, constants={"tag": "SIA2016"})
        assert atom.output_variables() == {"t", "account"}
        assert atom.required_parameters() == set()

    def test_source_variable_is_required_parameter(self):
        q = SQLQuery(sql="SELECT rate AS rate FROM unemployment")
        atom = SourceAtom(name="stats", query=q, source_variable="src")
        assert "src" in atom.required_parameters()

    def test_formal_bindings_translation(self):
        q = FullTextQuery.create("entities.hashtags:{tag}", {"t": "text", "id": "user.screen_name"})
        atom = SourceAtom(name="tweetContains", query=q, source="solr://tweets",
                          renames={"id": "account"}, constants={"tag": "SIA2016"})
        formal = atom.formal_bindings({"account": "fhollande", "irrelevant": 1})
        assert formal == {"tag": "SIA2016", "id": "fhollande"}

    def test_translate_back_to_cmq_names(self):
        q = FullTextQuery.create("*:*", {"t": "text", "id": "user.screen_name"})
        atom = SourceAtom(name="a", query=q, source="solr://tweets", renames={"id": "account"})
        source_batch = BindingBatch(("t", "id"), [("x", "y")])
        (batch,) = atom.translate([source_batch])
        assert batch.dicts() == [{"t": "x", "account": "y"}]
        # Header-only: the rows are the source batch's own list.
        assert batch.rows is source_batch.rows

    def test_execute_batch_on_applies_constants_filter(self, small_tweet_store):
        from repro.core import FullTextSource

        source = FullTextSource("solr://tweets", small_tweet_store)
        q = FullTextQuery.create("*:*", {"t": "text", "id": "user.screen_name"})
        atom = SourceAtom(name="a", query=q, source="solr://tweets",
                          constants={"id": "mlepen"})
        rows = dict_rows(atom.execute_batch_on(source, [{}])[0])
        assert len(rows) == 1 and "id" not in rows[0]

    def test_describe_mentions_target(self):
        q = SQLQuery(sql="SELECT rate AS rate FROM unemployment")
        atom = SourceAtom(name="stats", query=q, source_variable="src")
        assert "?src" in atom.describe()


class TestCMQ:
    def test_head_must_occur_in_body(self):
        q = RDFQuery.from_text("SELECT ?x WHERE { ?x ?p ?o }")
        atom = SourceAtom(name="a", query=q, source=GLUE_SOURCE)
        with pytest.raises(MixedQueryError):
            ConjunctiveMixedQuery(name="q", head=("missing",), atoms=[atom])

    def test_needs_at_least_one_atom(self):
        with pytest.raises(MixedQueryError):
            ConjunctiveMixedQuery(name="q", head=(), atoms=[])

    def test_glue_and_source_atoms_partition(self):
        cmq = (CMQBuilder("q", head=["id", "t"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .fulltext("tw", source="solr://tweets", query="*:*",
                         fields={"t": "text", "id": "user.screen_name"})
               .build())
        assert len(cmq.glue_atoms()) == 1
        assert len(cmq.source_atoms()) == 1
        assert not cmq.uses_dynamic_sources()

    def test_dynamic_source_flag(self):
        cmq = (CMQBuilder("q", head=["rate"])
               .graph("SELECT ?src WHERE { ?x ttn:endpoint ?src }")
               .sql("stats", source_variable="src",
                    sql="SELECT rate AS rate FROM unemployment")
               .build())
        assert cmq.uses_dynamic_sources()

    def test_output_variables_default_to_sorted_body(self):
        cmq = (CMQBuilder("q")
               .graph("SELECT ?id ?x WHERE { ?x ttn:twitterAccount ?id }")
               .build())
        assert cmq.output_variables() == ("id", "x")

    def test_str_mentions_atoms(self):
        cmq = (CMQBuilder("qSIA", head=["id"])
               .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
               .build())
        assert "qSIA" in str(cmq) and "qG" in str(cmq)


class TestTemplatesAndParsing:
    def test_instantiate_with_constants_and_renames(self, registry):
        template = registry.get("tweetContains")
        atom = template.instantiate([_var("tweet"), _var("id"), "SIA2016"])
        assert atom.constants == {"tag": "SIA2016"}
        assert atom.renames == {"t": "tweet"}
        assert atom.source == "solr://tweets"

    def test_wrong_arity_rejected(self, registry):
        with pytest.raises(MixedQueryError):
            registry.get("tweetContains").instantiate(["onlyone"])

    def test_unknown_template_rejected(self, registry):
        with pytest.raises(MixedQueryError):
            registry.get("nope")

    def test_parse_paper_qsia(self, registry):
        cmq = parse_cmq('qSIA(t, id) :- qG(id), tweetContains(t, id, "SIA2016")[solr://tweets]',
                        registry)
        assert cmq.name == "qSIA"
        assert cmq.head == ("t", "id")
        assert len(cmq.atoms) == 2
        assert cmq.atoms[0].is_glue()
        assert cmq.atoms[1].source == "solr://tweets"
        assert cmq.atoms[1].constants == {"tag": "SIA2016"}

    def test_parse_with_source_variable(self, registry):
        cmq = parse_cmq('q(t, id) :- qG(id), tweetContains(t, id, "SIA2016")[dSolr]', registry)
        assert cmq.atoms[1].source_variable == "dSolr"

    def test_parse_without_source_uses_template_default(self, registry):
        cmq = parse_cmq('q(pop) :- deptPopulation(dept, pop)', registry)
        assert cmq.atoms[0].source == "sql://insee"

    def test_parse_numeric_constant(self, registry):
        cmq = parse_cmq('q(dept) :- deptPopulation(dept, 1000000)', registry)
        assert cmq.atoms[0].constants == {"pop": 1000000}

    def test_parse_missing_separator_raises(self, registry):
        with pytest.raises(ParseError):
            parse_cmq("qSIA(t, id) qG(id)", registry)

    def test_parse_malformed_atom_raises(self, registry):
        with pytest.raises(ParseError):
            parse_cmq("q(t) :- qG id", registry)

    def test_registry_names(self, registry):
        assert "qG" in registry.names() and "tweetContains" in registry


def _var(name):
    from repro.core import VariableArg

    return VariableArg(name)
