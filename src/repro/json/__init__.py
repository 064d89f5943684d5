"""JSON document model: tree-pattern queries over native JSON documents.

The paper's mixed instances include JSON sources (the running example
queries tweets as JSON documents, Figure 2); this package is their
substrate:

* :mod:`repro.json.pattern` — the tree-pattern AST (paths, variables,
  predicates, run-time parameters);
* :mod:`repro.json.parser` — the textual pattern syntax
  (``{ user.screen_name: ?id, entities.hashtags: "sia2016" }``);
* :mod:`repro.json.store` — an in-memory document store maintaining one
  inverted :class:`~repro.json.index.PathIndex` per dotted path;
* :mod:`repro.json.matcher` — the one matcher: index-assisted candidate
  pruning, then a walk of each candidate's tree, held to a naive
  reference implementation;
* :mod:`repro.json.source` — the mediator-facing wrapper
  (:class:`~repro.json.source.JSONSource`) and its sub-query type;
* :mod:`repro.json.accel` — the XPath-accelerator encoding, which no
  query reads: kept only for the benchmark's traced pass, until ROADMAP
  item 2 deletes it.
"""

from repro.json.index import PathIndex, compare, normalize
from repro.json.matcher import TreePatternMatcher, iter_child_items, leaf_values, match_document
from repro.json.parser import parse_pattern, pattern_to_text
from repro.json.pattern import (
    Parameter,
    PatternLeaf,
    Predicate,
    TreePattern,
    is_wildcard_path,
    make_pattern,
    path_matches,
)
from repro.json.store import JSONDocumentStore

__all__ = [
    "PathIndex",
    "compare",
    "normalize",
    "TreePatternMatcher",
    "leaf_values",
    "match_document",
    "parse_pattern",
    "pattern_to_text",
    "Parameter",
    "PatternLeaf",
    "Predicate",
    "TreePattern",
    "is_wildcard_path",
    "make_pattern",
    "path_matches",
    "JSONDocumentStore",
    "iter_child_items",
]
