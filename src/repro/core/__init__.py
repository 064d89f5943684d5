"""Mediator core: mixed instances, CMQs, planning and execution.

This is the paper's primary contribution — the lightweight integration
layer evaluating Conjunctive Mixed Queries across heterogeneous sources
glued by a custom RDF graph.
"""

from repro.cache.mediator import MediatorCache
from repro.core.cmq import (
    AtomTemplate,
    AtomTemplateRegistry,
    CMQBuilder,
    ConjunctiveMixedQuery,
    GLUE_SOURCE,
    SourceAtom,
    VariableArg,
    parse_cmq,
    rename_atom,
)
from repro.core.executor import MixedQueryExecutor
from repro.core.instance import MixedInstance
from repro.core.planner import PlannerOptions, PlanStep, QueryPlan, QueryPlanner
from repro.core.results import ExecutionTrace, MixedResult, StepObservation, SubQueryCall
from repro.stats import CostModel, StatisticsCatalog
from repro.core.sources import DataSource, Row, SourceQuery
from repro.fulltext.source import FullTextQuery, FullTextSource
from repro.json.source import JSONQuery, JSONSource
from repro.rdf.source import RDFQuery, RDFSource
from repro.relational.source import RelationalSource, SQLQuery

__all__ = [
    "MediatorCache",
    "AtomTemplate",
    "AtomTemplateRegistry",
    "CMQBuilder",
    "ConjunctiveMixedQuery",
    "GLUE_SOURCE",
    "SourceAtom",
    "VariableArg",
    "parse_cmq",
    "rename_atom",
    "MixedQueryExecutor",
    "MixedInstance",
    "PlannerOptions",
    "PlanStep",
    "QueryPlan",
    "QueryPlanner",
    "ExecutionTrace",
    "MixedResult",
    "StepObservation",
    "SubQueryCall",
    "CostModel",
    "StatisticsCatalog",
    "DataSource",
    "FullTextQuery",
    "FullTextSource",
    "JSONQuery",
    "JSONSource",
    "RDFQuery",
    "RDFSource",
    "RelationalSource",
    "Row",
    "SourceQuery",
    "SQLQuery",
]
