"""Warehouse baseline: export every source into one RDF graph and query it.

The paper positions TATOOINE against "previous integration systems
exporting all data sources as semistructured graphs" (TSIMMIS-style) and
against the data-warehouse approach journalists do not have time to build
("filling a standard data warehouse comprising all types of information").
This baseline implements that alternative: every source is materialised as
RDF in a single graph, and mixed queries are translated to BGPs over that
graph.  The ablation benchmark (E8) compares it against the mediator,
measuring both the export (refresh) cost and the per-query cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.cmq import ConjunctiveMixedQuery, SourceAtom
from repro.core.instance import MixedInstance
from repro.core.results import MixedResult
from repro.fulltext.source import FullTextQuery, FullTextSource
from repro.json.source import JSONQuery, JSONSource
from repro.rdf.source import RDFQuery, RDFSource
from repro.relational.source import RelationalSource, SQLQuery
from repro.engine.batch import BindingBatch, tuple_decoder
from repro.errors import MixedQueryError
from repro.fulltext.document import Document
from repro.fulltext.query import BooleanQuery, MatchAllQuery, PhraseQuery, Query, TermQuery
from repro.json.pattern import Parameter as JSONParameter
from repro.rdf.bgp import BGPQuery, solve
from repro.rdf.graph import Graph
from repro.rdf.terms import Term, Triple, TriplePattern, URI, Variable, literal
from repro.relational.ast import BinaryOp, ColumnRef, LiteralValue, Parameter


@dataclass
class WarehouseStats:
    """Cost accounting of the warehouse baseline."""

    export_seconds: float = 0.0
    exported_triples: int = 0
    triples_per_source: dict[str, int] = field(default_factory=dict)


class RDFWarehouse:
    """A single-graph materialisation of a whole mixed instance."""

    def __init__(self, instance: MixedInstance):
        self.instance = instance
        self.graph = Graph(name="warehouse")
        self.stats = WarehouseStats()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> WarehouseStats:
        """Materialise the glue graph and every registered source as RDF,
        each store read in one reading."""
        start = time.perf_counter()
        before_total = len(self.graph)
        with self.instance.graph.reading() as glue:
            self.graph.add_all(glue)
        self.stats.triples_per_source["#glue"] = len(self.graph) - before_total
        for source in self.instance.sources():
            if isinstance(source, RDFSource):
                exported = None  # the graph's own triples
            elif isinstance(source, RelationalSource):
                exported = self._export_relational
            elif isinstance(source, FullTextSource):
                exported = self._export_fulltext
            elif isinstance(source, JSONSource):
                exported = self._export_json
            else:  # pragma: no cover - defensive
                raise MixedQueryError(f"cannot export source model {source.model!r}")
            with getattr(source, source.store_attribute).reading() as store:
                self.stats.triples_per_source[source.uri] = self.graph.add_all(
                    store if exported is None else exported(source.uri, store))
        self.stats.export_seconds = time.perf_counter() - start
        self.stats.exported_triples = len(self.graph)
        return self.stats

    def _export_relational(self, uri: str, database) -> Iterator[Triple]:
        for table in database.tables():
            for row_id, record in enumerate(table.scan()):
                subject = URI(f"{uri}/{table.name}/{row_id}")
                for column, value in record.items():
                    if value is None:
                        continue
                    predicate = self.column_predicate(uri, table.name, column)
                    yield Triple(subject, predicate, literal(value))

    def _export_fulltext(self, uri: str, store) -> Iterator[Triple]:
        for doc in store.documents():
            subject = URI(f"{uri}/doc/{doc.doc_id}")
            for path, value in doc.flat_fields():
                if value is None:
                    continue
                predicate = self.field_predicate(uri, path)
                config = store.field_config(path)
                if config is not None and config.field_type == "text":
                    # Analysed field: export the raw text plus one triple per
                    # stem so term queries become equality patterns.
                    yield Triple(subject, predicate, literal(value))
                    term_predicate = self.term_predicate(uri, path)
                    for stem in store.analyzer.stems(str(value)):
                        yield Triple(subject, term_predicate, literal(stem))
                else:
                    yield Triple(subject, predicate, literal(_normalize_keyword(value)))

    def _export_json(self, uri: str, store) -> Iterator[Triple]:
        for doc_id, fields in store.items():
            subject = URI(f"{uri}/doc/{doc_id}")
            for path, value in Document(doc_id=doc_id, fields=fields).flat_fields():
                if value is None:
                    continue
                predicate = self.field_predicate(uri, path)
                # Tree-pattern equality is keyword-style (case-insensitive),
                # so export the normalised form equality patterns match.
                yield Triple(subject, predicate, literal(_normalize_keyword(value)))

    # ------------------------------------------------------------------
    # Vocabulary of the exported graph
    # ------------------------------------------------------------------
    @staticmethod
    def column_predicate(source_uri: str, table: str, column: str) -> URI:
        return URI(f"{source_uri}#{table}.{column}")

    @staticmethod
    def field_predicate(source_uri: str, path: str) -> URI:
        return URI(f"{source_uri}#{path}")

    @staticmethod
    def term_predicate(source_uri: str, path: str) -> URI:
        return URI(f"{source_uri}#{path}.term")

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def execute(self, query: ConjunctiveMixedQuery, distinct: bool = True) -> MixedResult:
        """Translate ``query`` to one BGP over the warehouse and evaluate it."""
        patterns: list[TriplePattern] = []
        for index, atom in enumerate(query.atoms):
            patterns.extend(self._translate_atom(atom, index))
        head = tuple(Variable(v) for v in query.output_variables())
        bgp = BGPQuery(head=head, patterns=tuple(patterns), name=query.name)
        # Decoded through the graph's id -> value table, as the RDF wrapper does.
        rows = BindingBatch([v.name for v in head], tuple_decoder(len(head))(
            solve(bgp.patterns, self.graph, (), [()], head), self.graph.dictionary)).dicts()
        result = MixedResult(variables=list(query.output_variables()), rows=rows)
        return result.distinct() if distinct else result

    # -- per-atom translation -------------------------------------------------
    def _translate_atom(self, atom: SourceAtom, index: int) -> list[TriplePattern]:
        if atom.is_glue() or isinstance(atom.query, RDFQuery):
            return self._translate_rdf(atom)
        if isinstance(atom.query, FullTextQuery):
            return self._translate_fulltext(atom, index)
        if isinstance(atom.query, SQLQuery):
            return self._translate_sql(atom, index)
        if isinstance(atom.query, JSONQuery):
            return self._translate_json(atom, index)
        raise MixedQueryError(
            f"warehouse baseline cannot translate atom {atom.name!r}"
        )

    def _translate_rdf(self, atom: SourceAtom) -> list[TriplePattern]:
        assert isinstance(atom.query, RDFQuery)
        patterns = []
        for pattern in atom.query.bgp.patterns:
            patterns.append(TriplePattern(
                self._rename_term(pattern.subject, atom),
                self._rename_term(pattern.predicate, atom),
                self._rename_term(pattern.obj, atom),
            ))
        return patterns

    def _translate_fulltext(self, atom: SourceAtom, index: int) -> list[TriplePattern]:
        assert isinstance(atom.query, FullTextQuery)
        if atom.source is None:
            raise MixedQueryError(
                "warehouse baseline needs a fixed source URI for full-text atoms"
            )
        source_uri = atom.source
        store = self.instance.source(source_uri).store  # type: ignore[attr-defined]
        doc_var = Variable(f"doc{index}")
        patterns: list[TriplePattern] = []

        parsed = atom.query.template.bind(atom.constants)
        patterns.extend(self._fulltext_condition_patterns(parsed, doc_var, source_uri, store))

        for formal, path in atom.query.fields().items():
            if formal in atom.constants:
                continue
            actual = atom.renames.get(formal, formal)
            predicate = self.field_predicate(source_uri, path)
            patterns.append(TriplePattern(doc_var, predicate, Variable(actual)))
        return patterns

    def _fulltext_condition_patterns(self, parsed: Query, doc_var: Variable,
                                     source_uri: str, store) -> list[TriplePattern]:
        patterns: list[TriplePattern] = []
        if isinstance(parsed, MatchAllQuery):
            return patterns
        if isinstance(parsed, TermQuery):
            field_name = parsed.field or store.default_field
            config = store.field_config(field_name)
            if config is not None and config.field_type == "text":
                predicate = self.term_predicate(source_uri, field_name)
                for stem in store.analyzer.stems(parsed.term):
                    patterns.append(TriplePattern(doc_var, predicate, literal(stem)))
            else:
                predicate = self.field_predicate(source_uri, field_name)
                patterns.append(TriplePattern(doc_var, predicate,
                                              literal(_normalize_keyword(parsed.term))))
            return patterns
        if isinstance(parsed, PhraseQuery):
            field_name = parsed.field or store.default_field
            predicate = self.term_predicate(source_uri, field_name)
            for term in parsed.terms:
                for stem in store.analyzer.stems(term):
                    patterns.append(TriplePattern(doc_var, predicate, literal(stem)))
            return patterns
        if isinstance(parsed, BooleanQuery) and parsed.operator == "AND":
            for operand in parsed.operands:
                patterns.extend(self._fulltext_condition_patterns(operand, doc_var,
                                                                  source_uri, store))
            return patterns
        raise MixedQueryError(
            "warehouse baseline only translates conjunctive full-text queries"
        )

    def _translate_sql(self, atom: SourceAtom, index: int) -> list[TriplePattern]:
        assert isinstance(atom.query, SQLQuery)
        if atom.source is None:
            raise MixedQueryError(
                "warehouse baseline needs a fixed source URI for SQL atoms"
            )
        template = atom.query.template
        statement = template.statement
        untranslatable = MixedQueryError(
            "warehouse baseline only translates SELECT columns FROM one table WHERE "
            f"column = value AND ... (atom {atom.name!r})")
        if (len(template.tables) != 1 or statement.joins or statement.distinct
                or statement.group_by or statement.having or statement.limit is not None
                or len(template.plain_outputs) != len(statement.items)):
            raise untranslatable
        table = template.tables[0]
        row_var = Variable(f"row{index}")
        patterns = [TriplePattern(row_var, self.column_predicate(atom.source, table, column.name),
                                  self._rename_term(Variable(output), atom))
                    for output, column in template.plain_outputs.items()]
        for condition in template.conjuncts:
            if not (isinstance(condition, BinaryOp) and condition.operator == "="
                    and isinstance(condition.left, ColumnRef)):
                raise untranslatable
            value = condition.right
            if isinstance(value, Parameter):
                obj = self._rename_term(Variable(value.name), atom)
            elif isinstance(value, LiteralValue) and value.value is not None:
                obj = literal(value.value)
            else:
                raise untranslatable
            patterns.append(TriplePattern(
                row_var, self.column_predicate(atom.source, table, condition.left.name), obj))
        return patterns

    def _translate_json(self, atom: SourceAtom, index: int) -> list[TriplePattern]:
        assert isinstance(atom.query, JSONQuery)
        if atom.source is None:
            raise MixedQueryError(
                "warehouse baseline needs a fixed source URI for JSON atoms"
            )
        doc_var = Variable(f"jdoc{index}")
        patterns: list[TriplePattern] = []
        for leaf in atom.query.pattern.leaves:
            predicate = self.field_predicate(atom.source, leaf.path)
            for condition in leaf.predicates:
                if condition.op != "=":
                    raise MixedQueryError(
                        "warehouse baseline only translates equality tree-pattern "
                        f"predicates (atom {atom.name!r})"
                    )
                value = condition.value
                if isinstance(value, JSONParameter):
                    if value.name in atom.constants:
                        obj: Term | Variable = literal(
                            _normalize_keyword(atom.constants[value.name]))
                    else:
                        obj = Variable(atom.renames.get(value.name, value.name))
                else:
                    obj = literal(_normalize_keyword(value))
                patterns.append(TriplePattern(doc_var, predicate, obj))
            if leaf.variable is not None:
                if leaf.variable in atom.constants:
                    obj = literal(_normalize_keyword(atom.constants[leaf.variable]))
                else:
                    obj = Variable(atom.renames.get(leaf.variable, leaf.variable))
                patterns.append(TriplePattern(doc_var, predicate, obj))
            if leaf.is_existence():
                patterns.append(TriplePattern(doc_var, predicate,
                                              Variable(f"jx{index}_{len(patterns)}")))
        return patterns

    def _rename_term(self, term, atom: SourceAtom):
        if isinstance(term, Variable):
            if term.name in atom.constants:
                return literal(atom.constants[term.name])
            return Variable(atom.renames.get(term.name, term.name))
        return term


def _normalize_keyword(value: object) -> object:
    if isinstance(value, str):
        return value.lower()
    return value

