"""Conjunctive Mixed Queries (CMQ).

A CMQ (paper, Definition in §2.2) has the form::

    q(x̄) :- qG(x̄0), q1(x̄1)[d1], ..., qn(x̄n)[dn]

where ``qG`` is a BGP over the custom RDF graph of the mixed instance and
each ``qi`` is a sub-query in the language of a data source ``di``; each
``di`` is either a source URI or a *variable* bound at run time (dynamic
source discovery).

This module provides:

* :class:`SourceAtom` / :class:`ConjunctiveMixedQuery` — the query objects;
* :class:`CMQBuilder` — a fluent programmatic construction API;
* :class:`AtomTemplateRegistry` and :func:`parse_cmq` — the textual syntax
  used in the paper (``qSIA(t, id) :- qG(id), tweetContains(t, id,
  "SIA2016")[dSolr]``), where atom names refer to registered sub-query
  templates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from typing import Optional, Sequence

from repro.core.sources import DataSource, Row, SourceQuery
from repro.fulltext.source import FullTextQuery
from repro.json.source import JSONQuery
from repro.rdf.source import RDFQuery
from repro.relational.source import SQLQuery
from repro.engine.batch import BindingBatch, tuple_getter
from repro.errors import MixedQueryError, ParseError

#: Sentinel source URI designating the mixed instance's custom RDF graph.
GLUE_SOURCE = "#glue"


@dataclass(frozen=True)
class SourceAtom:
    """One conjunct of a CMQ: a sub-query aimed at a data source.

    Parameters
    ----------
    name:
        Display name of the atom (e.g. ``tweetContains``).
    query:
        The per-model sub-query (its variables are the atom's *formal*
        variables).
    source:
        Source URI, :data:`GLUE_SOURCE` for the custom graph, or ``None``
        when ``source_variable`` is used instead.
    source_variable:
        Name of the CMQ variable whose binding identifies the source at
        run time (dynamic source discovery).
    renames:
        Mapping from formal variable names to CMQ variable names.
    constants:
        Formal variables fixed to constants (e.g. the hashtag "SIA2016").

    Bindings go to the source in formal names (:meth:`formal_bindings`);
    its answer comes back as batches whose *headers* are translated to
    CMQ names (:meth:`translate`) — the rows are never copied.
    """

    name: str
    query: SourceQuery
    source: Optional[str] = None
    source_variable: Optional[str] = None
    renames: dict[str, str] = field(default_factory=dict)
    constants: dict[str, object] = field(default_factory=dict)
    #: Memo: a header (or ``("canonical", header)``) -> its :meth:`translate`
    #: spec; ``("slots", names)`` / ``("key", names)`` -> a binding's;
    #: ``"variables"`` -> :meth:`_variables`.
    _specs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.source is not None and self.source_variable is not None:
            raise MixedQueryError(
                f"atom {self.name!r} cannot have both a source URI and a source variable"
            )
        if self.source is None and self.source_variable is None:
            raise MixedQueryError(
                f"atom {self.name!r} needs a source URI, a source variable, or GLUE_SOURCE"
            )

    # -- variable bookkeeping ------------------------------------------------
    def output_variables(self) -> frozenset[str]:
        """CMQ variables this atom can bind."""
        return self._variables()[0]

    def required_parameters(self) -> frozenset[str]:
        """CMQ variables that must be bound before this atom can run."""
        return self._variables()[1]

    def variables(self) -> frozenset[str]:
        """Every CMQ variable mentioned by the atom."""
        return self._variables()[2]

    def _variables(self) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        """(output, required, every) CMQ variables, derived once per atom."""
        found = self._specs.get("variables")
        if found is None:
            def actual(formals) -> frozenset[str]:
                return frozenset(self.renames.get(formal, formal) for formal in formals
                                 if formal not in self.constants)

            out, required = (actual(self.query.output_variables()),
                             actual(self.query.required_parameters()))
            if self.source_variable is not None:
                required |= {self.source_variable}
            found = self._specs["variables"] = (out, required, out | required)
        return found

    # -- execution helpers ---------------------------------------------------
    def _formal_slots(self, names: tuple[str, ...]) -> tuple[tuple[str, int], ...]:
        """``(formal, i)``: the formals (constants aside) a binding over CMQ
        variables ``names`` binds to its ``i``-th value; once per names."""
        slots = self._specs.get(("slots", names))
        if slots is None:
            index = {name: i for i, name in enumerate(names)}
            found = {formal: index[actual] for formal in
                     self.query.output_variables() | self.query.required_parameters()
                     if (actual := self.renames.get(formal, formal)) in index}
            reverse = {actual: formal for formal, actual in self.renames.items()}
            found.update({reverse[name]: i for name, i in index.items()
                          if name in reverse and reverse[name] not in found})
            slots = self._specs[("slots", names)] = tuple(
                (formal, i) for formal, i in found.items() if formal not in self.constants)
        return slots

    def formal_bindings(self, bindings: Row) -> Row:
        """Translate CMQ-level ``bindings`` into the sub-query's formal names."""
        values = tuple(bindings.values())
        slots = self._formal_slots(tuple(bindings))
        return {**self.constants, **{name: values[i] for name, i in slots}}

    def binding_keyer(self, canonical, names: tuple[str, ...]):
        """The cache keyer of a binding over ``names`` (``canonical`` is the
        canonical form of :attr:`query`), compiled once per names."""
        return self._specs.get(("key", names)) or self._specs.setdefault(
            ("key", names), canonical.keyer(self._formal_slots(names), self.constants))

    def translate(self, batches: list[BindingBatch],
                  canonical=None) -> list[BindingBatch]:
        """Translate source batches (formal names) to CMQ variable names.

        Worked out once per (atom, header) — a cache entry's header, in the
        names of ``canonical`` when given: the rows are shared under the
        renamed header.  Only a header holding a constant's column has
        its rows filtered (violations go) and narrowed (the column goes);
        two formals renamed to one variable collapse like dict keys.
        """
        out = []
        for batch in batches:
            memo = batch.columns if canonical is None else ("canonical", batch.columns)
            spec = self._specs.get(memo)
            if spec is None:
                columns = (batch.columns if canonical is None else
                           tuple(canonical.inverse.get(c, c) for c in batch.columns))
                picks: dict[str, int] = {}
                checks = []
                for index, formal in enumerate(columns):
                    if formal in self.constants:
                        checks.append((index, self.constants[formal]))
                    else:
                        picks[self.renames.get(formal, formal)] = index
                narrow = (None if len(picks) == len(columns)
                          else tuple_getter(list(picks.values())))
                spec = self._specs[memo] = (tuple(picks), checks, narrow)
            columns, checks, narrow = spec
            rows = batch.rows
            if checks:
                rows = [row for row in rows
                        if all(_matches_constant(row[i], expected) for i, expected in checks)]
            if narrow is not None:
                rows = list(map(narrow, rows))
            out.append(batch if columns == batch.columns else BindingBatch(columns, rows))
        return out

    def execute_batch_on(self, source: DataSource, bindings_batch: Sequence[Row],
                         probed: tuple | None = None) -> list[list[BindingBatch]]:
        """Run the atom's sub-query on ``source`` for a whole binding batch.

        One mediator-level call — a materialize step's is the batch of
        one empty binding: the wrapper batches natively when it can
        (IN-lists, disjunctive queries, shared candidate sets).  Returns
        the translated batches of each input binding, in order.
        """
        formal_batch = [self.formal_bindings(bindings or {}) for bindings in bindings_batch]
        answers = (source.execute_batch(self.query, formal_batch) if probed is None
                   else source.execute_batch(self.query, formal_batch, probed))
        return [self.translate(batches) for batches in answers]

    def is_glue(self) -> bool:
        """True when the atom targets the instance's custom RDF graph."""
        return self.source == GLUE_SOURCE

    def describe(self) -> str:
        """Textual form used in plans and traces."""
        target = self.source if self.source is not None else f"?{self.source_variable}"
        variables = ", ".join(sorted(self.output_variables()))
        return f"{self.name}({variables})[{target}]"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.describe()


@dataclass(frozen=True)
class ConjunctiveMixedQuery:
    """A full CMQ: head variables plus a conjunction of source atoms.

    Immutable, so what planning derives from it — its :attr:`signature` —
    is derived once per object and kept on it.
    """

    name: str
    head: tuple[str, ...]
    atoms: tuple[SourceAtom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", tuple(self.head))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise MixedQueryError(f"CMQ {self.name!r} needs at least one atom")
        body_vars = self.variables()
        missing = [v for v in self.head if v not in body_vars]
        if missing:
            raise MixedQueryError(
                f"head variable(s) {missing} of {self.name!r} do not occur in the body"
            )

    def variables(self) -> set[str]:
        """Every variable appearing in the body."""
        out: set[str] = set()
        for atom in self.atoms:
            out.update(atom.variables())
        return out

    def output_variables(self) -> tuple[str, ...]:
        """Head variables, or all body variables if the head is empty."""
        if self.head:
            return self.head
        return tuple(sorted(self.variables()))

    def glue_atoms(self) -> list[SourceAtom]:
        """Atoms evaluated on the custom RDF graph (the ``qG`` part)."""
        return [a for a in self.atoms if a.is_glue()]

    def source_atoms(self) -> list[SourceAtom]:
        """Atoms shipped to external data sources."""
        return [a for a in self.atoms if not a.is_glue()]

    def uses_dynamic_sources(self) -> bool:
        """True when at least one atom discovers its source at run time."""
        return any(a.source_variable is not None for a in self.atoms)

    @cached_property
    def signature(self) -> Optional[tuple]:
        """The renaming-invariant plan-cache signature
        (:func:`repro.cache.plans.cmq_signature`), derived once per object."""
        from repro.cache.plans import derive_signature

        return derive_signature(self)

    @cached_property
    def layout(self):
        """The planner's bitmask view of the body
        (:class:`repro.core.planner.Layout`), derived once per object."""
        from repro.core.planner import Layout

        return Layout(self)

    def __str__(self) -> str:  # pragma: no cover - trivial
        head = ", ".join(self.output_variables())
        body = ", ".join(a.describe() for a in self.atoms)
        return f"{self.name}({head}) :- {body}"


# ---------------------------------------------------------------------------
# Programmatic builder
# ---------------------------------------------------------------------------

class CMQBuilder:
    """Fluent construction of CMQs.

    Example
    -------
    >>> cmq = (CMQBuilder("qSIA", head=["t", "id"])
    ...        .graph("SELECT ?id WHERE { ?x ttn:position ttn:headOfState . "
    ...               "?x ttn:twitterAccount ?id }")
    ...        .fulltext("tweetContains", source="solr://tweets",
    ...                  query="entities.hashtags:sia2016",
    ...                  fields={"t": "text", "id": "user.screen_name"})
    ...        .build())
    """

    def __init__(self, name: str, head: Sequence[str] = ()):
        self._name = name
        self._head = tuple(head)
        self._atoms: list[SourceAtom] = []

    def graph(self, sparql_text: str, name: str = "qG",
              renames: dict[str, str] | None = None) -> "CMQBuilder":
        """Add a BGP over the instance's custom RDF graph."""
        return self.atom(SourceAtom(name=name, query=RDFQuery.from_text(sparql_text, name=name),
                                    source=GLUE_SOURCE, renames=renames or {}))

    def rdf(self, name: str, sparql_text: str, source: str | None = None,
            source_variable: str | None = None,
            renames: dict[str, str] | None = None) -> "CMQBuilder":
        """Add a BGP shipped to an external RDF source."""
        return self.atom(SourceAtom(name=name, query=RDFQuery.from_text(sparql_text, name=name),
                                    source=source, source_variable=source_variable,
                                    renames=renames or {}))

    def sql(self, name: str, sql: str, source: str | None = None,
            source_variable: str | None = None, renames: dict[str, str] | None = None,
            constants: dict[str, object] | None = None) -> "CMQBuilder":
        """Add a SQL sub-query shipped to a relational source."""
        return self.atom(SourceAtom(name=name, query=SQLQuery(sql=sql), source=source,
                                    source_variable=source_variable,
                                    renames=renames or {}, constants=constants or {}))

    def fulltext(self, name: str, query: str, fields: dict[str, str],
                 source: str | None = None, source_variable: str | None = None,
                 limit: int | None = None, sort_by: str | None = None,
                 renames: dict[str, str] | None = None,
                 constants: dict[str, object] | None = None) -> "CMQBuilder":
        """Add a full-text sub-query shipped to a Solr-like source."""
        ft_query = FullTextQuery.create(query, fields, limit=limit, sort_by=sort_by)
        return self.atom(SourceAtom(name=name, query=ft_query, source=source,
                                    source_variable=source_variable,
                                    renames=renames or {}, constants=constants or {}))

    def json(self, name: str, pattern: str, source: str | None = None,
             source_variable: str | None = None, limit: int | None = None,
             renames: dict[str, str] | None = None,
             constants: dict[str, object] | None = None) -> "CMQBuilder":
        """Add a tree-pattern sub-query shipped to a JSON document source."""
        return self.atom(SourceAtom(name=name, query=JSONQuery.from_text(pattern, limit=limit),
                                    source=source, source_variable=source_variable,
                                    renames=renames or {}, constants=constants or {}))

    def atom(self, atom: SourceAtom) -> "CMQBuilder":
        """Add an already-built atom."""
        self._atoms.append(atom)
        return self

    def build(self) -> ConjunctiveMixedQuery:
        """Finalise and validate the CMQ."""
        return ConjunctiveMixedQuery(name=self._name, head=self._head, atoms=self._atoms)


# ---------------------------------------------------------------------------
# Textual CMQ syntax with atom templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomTemplate:
    """A named, reusable sub-query with positional formal parameters.

    ``parameters`` lists formal variable names in the order expected by the
    textual syntax; ``query`` is the sub-query whose variables use the
    formal names; ``default_source`` is used when the atom text does not
    carry a ``[source]`` annotation.
    """

    name: str
    parameters: tuple[str, ...]
    query: SourceQuery
    default_source: Optional[str] = None

    def instantiate(self, arguments: Sequence[object], source: str | None = None,
                    source_variable: str | None = None) -> SourceAtom:
        """Bind positional ``arguments`` (variables or constants) to the template."""
        if len(arguments) != len(self.parameters):
            raise MixedQueryError(
                f"atom {self.name!r} expects {len(self.parameters)} arguments, "
                f"got {len(arguments)}"
            )
        renames: dict[str, str] = {}
        constants: dict[str, object] = {}
        for formal, argument in zip(self.parameters, arguments):
            if isinstance(argument, VariableArg):
                if argument.name != formal:
                    renames[formal] = argument.name
            else:
                constants[formal] = argument
        if source is None and source_variable is None:
            source = self.default_source
        return SourceAtom(name=self.name, query=self.query, source=source,
                          source_variable=source_variable, renames=renames,
                          constants=constants)


@dataclass(frozen=True)
class VariableArg:
    """A variable argument in the textual CMQ syntax."""

    name: str


class AtomTemplateRegistry:
    """Registry of atom templates available to the textual CMQ syntax."""

    #: Texts whose parsed CMQ :meth:`parse` keeps (a bounded LRU).
    PARSE_MEMO_ENTRIES = 1024

    def __init__(self) -> None:
        self._templates: dict[str, AtomTemplate] = {}
        self._parsed = lru_cache(self.PARSE_MEMO_ENTRIES)(partial(parse_cmq, registry=self))

    def register(self, template: AtomTemplate) -> AtomTemplate:
        """Register a template (replacing an existing one with the same name)."""
        self._templates[template.name] = template
        self.forget_parsed()
        return template

    def parse(self, text: str) -> ConjunctiveMixedQuery:
        """:func:`parse_cmq` against this registry, one frozen CMQ per text
        until a template is registered or :meth:`forget_parsed` is called."""
        return self._parsed(text)

    def forget_parsed(self) -> None:
        """Drop every memoised parse."""
        self._parsed.cache_clear()

    def register_graph_bgp(self, name: str, sparql_text: str,
                           parameters: Sequence[str]) -> AtomTemplate:
        """Register a BGP template over the custom graph."""
        query = RDFQuery.from_text(sparql_text, name=name)
        return self.register(AtomTemplate(name=name, parameters=tuple(parameters),
                                          query=query, default_source=GLUE_SOURCE))

    def register_rdf(self, name: str, sparql_text: str, parameters: Sequence[str],
                     default_source: str | None = None) -> AtomTemplate:
        """Register a BGP template over an external RDF source."""
        query = RDFQuery.from_text(sparql_text, name=name)
        return self.register(AtomTemplate(name=name, parameters=tuple(parameters),
                                          query=query, default_source=default_source))

    def register_sql(self, name: str, sql: str, parameters: Sequence[str],
                     default_source: str | None = None) -> AtomTemplate:
        """Register a SQL template."""
        return self.register(AtomTemplate(name=name, parameters=tuple(parameters),
                                          query=SQLQuery(sql=sql),
                                          default_source=default_source))

    def register_fulltext(self, name: str, query: str, fields: dict[str, str],
                          parameters: Sequence[str], default_source: str | None = None,
                          limit: int | None = None, sort_by: str | None = None) -> AtomTemplate:
        """Register a full-text template."""
        ft_query = FullTextQuery.create(query, fields, limit=limit, sort_by=sort_by)
        return self.register(AtomTemplate(name=name, parameters=tuple(parameters),
                                          query=ft_query, default_source=default_source))

    def register_json(self, name: str, pattern: str, parameters: Sequence[str],
                      default_source: str | None = None,
                      limit: int | None = None) -> AtomTemplate:
        """Register a tree-pattern template over a JSON document source."""
        query = JSONQuery.from_text(pattern, limit=limit)
        return self.register(AtomTemplate(name=name, parameters=tuple(parameters),
                                          query=query, default_source=default_source))

    def get(self, name: str) -> AtomTemplate:
        """Return a template by name."""
        if name not in self._templates:
            raise MixedQueryError(f"no atom template named {name!r} is registered")
        return self._templates[name]

    def __contains__(self, name: str) -> bool:
        return name in self._templates

    def names(self) -> list[str]:
        """Registered template names, sorted."""
        return sorted(self._templates)


_ATOM_RE = re.compile(
    r"\s*(?P<name>[A-Za-z_][\w]*)\s*\((?P<args>[^)]*)\)\s*(?:\[\s*(?P<source>[^\]]+)\s*\])?\s*"
)


def parse_cmq(text: str, registry: AtomTemplateRegistry) -> ConjunctiveMixedQuery:
    """Parse the paper's textual CMQ syntax.

    Example::

        qSIA(t, id) :- qG(id), tweetContains(t, id, "SIA2016")[dSolr]

    Atom names must be registered in ``registry``; a ``[d]`` annotation is
    a source URI if quoted or containing ``://`` / ``#``, a source variable
    otherwise.
    """
    if ":-" not in text:
        raise ParseError("a CMQ needs a ':-' separating head and body")
    head_text, body_text = text.split(":-", 1)
    head_match = _ATOM_RE.fullmatch(head_text)
    if not head_match:
        raise ParseError(f"malformed CMQ head: {head_text.strip()!r}")
    name = head_match.group("name")
    head = tuple(a.name for a in _parse_arguments(head_match.group("args"))
                 if isinstance(a, VariableArg))

    atoms: list[SourceAtom] = []
    for atom_text in _split_atoms(body_text):
        match = _ATOM_RE.fullmatch(atom_text)
        if not match:
            raise ParseError(f"malformed CMQ atom: {atom_text.strip()!r}")
        template = registry.get(match.group("name"))
        arguments = _parse_arguments(match.group("args"))
        source_text = match.group("source")
        source_uri, source_variable = _parse_source(source_text)
        atoms.append(template.instantiate(arguments, source=source_uri,
                                          source_variable=source_variable))
    return ConjunctiveMixedQuery(name=name, head=head, atoms=atoms)


def _split_atoms(body_text: str) -> list[str]:
    parts, depth, current = [], 0, []
    for ch in body_text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if "".join(current).strip():
        parts.append("".join(current))
    return [p for p in parts if p.strip()]


def _parse_arguments(args_text: str) -> list[object]:
    arguments: list[object] = []
    for raw in _split_atoms(args_text):
        token = raw.strip()
        if not token:
            continue
        if token.startswith('"') and token.endswith('"'):
            arguments.append(token[1:-1])
        elif re.fullmatch(r"[+-]?\d+", token):
            arguments.append(int(token))
        elif re.fullmatch(r"[+-]?\d+\.\d+", token):
            arguments.append(float(token))
        elif re.fullmatch(r"[A-Za-z_][\w]*", token):
            arguments.append(VariableArg(token))
        else:
            raise ParseError(f"cannot interpret CMQ argument {token!r}")
    return arguments


def _parse_source(source_text: str | None) -> tuple[str | None, str | None]:
    if source_text is None:
        return None, None
    token = source_text.strip()
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1], None
    if "://" in token or token.startswith("#"):
        return token, None
    return None, token


def rename_atom(atom: SourceAtom, renames: dict[str, str]) -> SourceAtom:
    """Return a copy of ``atom`` with additional output-variable renames.

    Existing renames are composed with the new ones (``renames`` maps
    current CMQ variable names to new names).
    """
    composed = dict(atom.renames)
    for formal in atom.query.output_variables() | atom.query.required_parameters():
        current = atom.renames.get(formal, formal)
        if current in renames:
            composed[formal] = renames[current]
    return replace(atom, renames=composed)


def _matches_constant(value: object, expected: object) -> bool:
    return value == expected or (isinstance(value, str) and isinstance(expected, str)
                                 and value.lower() == expected.lower())
