"""repro — a reproduction of TATOOINE (VLDB 2016).

"Mixed-instance querying: a lightweight integration architecture for data
journalism" describes TATOOINE, a mediator that evaluates *Conjunctive
Mixed Queries* over a mixed instance: a custom RDF "glue" graph plus a set
of heterogeneous data sources (Solr-like full-text stores, relational
databases, RDF sources), and offers keyword search over source digests.

The top-level package re-exports the most commonly used entry points; the
subsystems live in dedicated sub-packages:

``repro.core``
    mixed instances, CMQs, planner and executor (the paper's contribution);
``repro.rdf`` / ``repro.relational`` / ``repro.fulltext`` / ``repro.json``
    the data-source substrates;
``repro.engine``
    the iterator-based execution engine;
``repro.digest``
    source digests (Bloom filters, histograms, dataguides, RDF summaries)
    and the keyword-based query engine;
``repro.obs``
    observability: structured spans, the metrics registry, EXPLAIN ANALYZE;
``repro.analytics``
    PMI vocabulary analytics and tag clouds (Figure 3);
``repro.datasets``
    deterministic synthetic datasets standing in for the Le Monde corpus;
``repro.baselines``
    the warehouse baseline and the oracles' reference plan.
"""

import logging

# Library logging convention: everything logs under the "repro.*"
# hierarchy and the library itself never configures handlers.
logging.getLogger("repro").addHandler(logging.NullHandler())

from repro.core.cmq import CMQBuilder, ConjunctiveMixedQuery, GLUE_SOURCE, parse_cmq
from repro.core.instance import MixedInstance
from repro.core.planner import PlannerOptions
from repro.core.results import MixedResult
from repro.core.sources import (
    FullTextQuery,
    FullTextSource,
    JSONQuery,
    JSONSource,
    RDFQuery,
    RDFSource,
    RelationalSource,
    SQLQuery,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "CMQBuilder",
    "ConjunctiveMixedQuery",
    "GLUE_SOURCE",
    "parse_cmq",
    "MixedInstance",
    "PlannerOptions",
    "MixedResult",
    "FullTextQuery",
    "FullTextSource",
    "JSONQuery",
    "JSONSource",
    "RDFQuery",
    "RDFSource",
    "RelationalSource",
    "SQLQuery",
    "ReproError",
    "__version__",
]
