"""A full-text sub-query parsed once, read by every layer, bound by value.

:func:`fulltext_template` parses the text once (``{var}`` placeholders
become :class:`~repro.fulltext.query.Parameter` nodes) and the
:class:`FullTextTemplate` answers what the planner, the wrapper, the
estimators and the cache keys ask from the same AST the
store evaluates — analysis and execution cannot disagree.  A call never
goes back through text: :meth:`FullTextTemplate.bind` returns a query
whose parameters are exact terms holding the binding values themselves.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import MixedQueryError
from repro.fulltext.query import (
    BooleanQuery,
    NotQuery,
    Parameter,
    Query,
    TermQuery,
    parse_query,
)


class FullTextTemplate:
    """Everything the mediator reads off one full-text query.

    Built once per query text and shared by every query object and
    thread naming that text: treat every attribute as read-only.
    """

    def __init__(self, query: Query):
        #: The parsed query, its ``Parameter`` nodes unbound.
        self.query = query
        #: Parameter -> ``?N`` by first appearance, and the query rendered
        #: under those names (the result cache's renaming-invariant key).
        self.canonical_names: dict[str, str] = {}
        occurrences: list[str] = []

        def canonical(node: Parameter) -> Parameter:
            occurrences.append(node.name)
            return Parameter(node.field, self.canonical_names.setdefault(
                node.name, f"?{len(self.canonical_names)}"))

        self.canonical_text = repr(self._rewritten(canonical))
        #: Names of the ``{var}`` parameters a call must bind.
        self.parameters = frozenset(occurrences)
        #: The top-level AND-ed clauses: each is necessary for a hit.
        self.conjuncts = tuple(_conjuncts(query))
        #: Parameter -> field path, for parameters whose *only* occurrence
        #: is a top-level ``path:{var}`` conjunct.
        self.clause_parameters = {
            c.name: c.field for c in self.conjuncts
            if isinstance(c, Parameter) and c.field is not None
            and occurrences.count(c.name) == 1}

    def bind(self, bindings: Mapping[str, object],
             in_lists: Mapping[str, Iterable[object]] | None = None) -> Query:
        """The query with every parameter replaced by its value.

        ``in_lists`` maps parameters of :attr:`clause_parameters` to the
        values of a whole batch: ``path:{var}`` becomes ``path`` holding
        :func:`any_of` them.  A value travels as the term of an exact
        :class:`TermQuery`: nothing is rendered to query text or lexed.
        """
        if not self.parameters:
            return self.query
        lists = in_lists or {}
        missing = sorted(self.parameters - set(bindings) - set(lists))
        if missing:
            raise MixedQueryError(
                f"sub-query parameter {{{missing[0]}}} is not bound; required "
                "parameters must be produced by an earlier sub-query or a constant")

        return self._rewritten(lambda node: any_of(
            node.field, lists[node.name] if node.name in lists else [bindings[node.name]]))

    def _rewritten(self, parameter: Callable[[Parameter], Query]) -> Query:
        def rewritten(node: Query) -> Query:
            if isinstance(node, Parameter):
                return parameter(node)
            if isinstance(node, BooleanQuery):
                return BooleanQuery(node.operator, tuple(map(rewritten, node.operands)))
            if isinstance(node, NotQuery):
                return NotQuery(rewritten(node.operand))
            return node

        return rewritten(self.query)


@functools.lru_cache(maxsize=256)
def fulltext_template(text: str) -> FullTextTemplate:
    """The template of one query text, parsed at most once per text.

    Raises :class:`~repro.errors.ParseError` for text the store's parser
    rejects.
    """
    return FullTextTemplate(parse_query(text))


def any_of(field: str | None, values: Iterable[object]) -> Query:
    """``field`` holds one of ``values``: exact terms, OR-ed when several."""
    terms = tuple(TermQuery(field, value, exact=True)
                  for value in dict.fromkeys(map(str, values)))
    return terms[0] if len(terms) == 1 else BooleanQuery("OR", terms)


def _conjuncts(query: Query) -> Iterator[Query]:
    if isinstance(query, BooleanQuery) and query.operator == "AND":
        for operand in query.operands:
            yield from _conjuncts(operand)
    else:
        yield query
