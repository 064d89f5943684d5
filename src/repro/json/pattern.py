"""Tree-pattern AST of the JSON document model.

The paper's running example (Figure 2) queries tweets as JSON documents;
a *tree pattern* is the natural query shape for them: a set of dotted
paths into the document tree, each leaf either binding a mediator
variable, comparing the values found at the path against a constant (or a
run-time ``{parameter}``), or merely requiring the path to exist.

Array values are handled existentially, as in XML/JSON tree-pattern
semantics: a predicate holds for a document when *some* element at the
path satisfies it, and a variable leaf produces one binding per matching
element (so ``entities.hashtags: ?tag`` fans out over the hashtag list).
String equality is keyword-style (case-insensitive), mirroring the
full-text store's keyword fields, so ``"SIA2016"`` and ``"sia2016"``
denote the same tag.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import JSONError

#: Comparison operators a leaf predicate may use.
COMPARISONS = ("=", "!=", ">", ">=", "<", "<=")

#: Path segments with structural (axis) meaning: ``*`` matches exactly one
#: step with any key (the child axis, label-free), ``**`` matches any chain
#: of zero or more steps (the descendant-or-self axis between its
#: neighbouring segments).
WILDCARD_SEGMENTS = ("*", "**")


def is_wildcard_path(path: str) -> bool:
    """True when the path uses ``*``/``**`` axis segments."""
    if "*" not in path:
        return False
    return any(segment in WILDCARD_SEGMENTS for segment in path.split("."))


def _nfa_closure(segments: list[str], positions: set[int]) -> set[int]:
    """ε-closure of NFA positions: ``**`` may consume zero steps."""
    out = set(positions)
    frontier = list(positions)
    while frontier:
        index = frontier.pop()
        if index < len(segments) and segments[index] == "**" and index + 1 not in out:
            out.add(index + 1)
            frontier.append(index + 1)
    return out


def _nfa_advance(segments: list[str], positions: set[int], key: str) -> set[int]:
    """Positions reachable after consuming one concrete step ``key``."""
    out: set[int] = set()
    for index in positions:
        if index >= len(segments):
            continue
        segment = segments[index]
        if segment == "**":
            out.add(index)  # the descendant chain absorbs the step
        elif segment == "*" or segment == key:
            out.add(index + 1)
    return _nfa_closure(segments, out)


def path_matches(pattern_path: str, concrete_path: str,
                 prefix: bool = False) -> bool:
    """Does a (possibly wildcard) pattern path match a concrete path?

    With ``prefix=True`` the pattern may also match any non-empty prefix
    of ``concrete_path`` — the question ``doc_ids_with_path`` asks, since
    every interior node's path is a prefix of some indexed leaf path.
    """
    segments = pattern_path.split(".")
    length = len(segments)
    positions = _nfa_closure(segments, {0})
    for step in concrete_path.split("."):
        positions = _nfa_advance(segments, positions, step)
        if not positions:
            return False
        if prefix and length in positions:
            return True
    return length in positions


@dataclass(frozen=True)
class Parameter:
    """A run-time parameter (``{name}``) filled from the current bindings."""

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "{" + self.name + "}"


@dataclass(frozen=True)
class Predicate:
    """One comparison applied to the values found at a leaf's path."""

    op: str
    value: object  # a constant, or a Parameter resolved at run time

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS:
            raise JSONError(f"unsupported tree-pattern comparison {self.op!r}")

    def resolve(self, parameters: dict[str, object] | None) -> "Predicate":
        """Return a copy with :class:`Parameter` values filled in."""
        if not isinstance(self.value, Parameter):
            return self
        parameters = parameters or {}
        if self.value.name not in parameters:
            raise JSONError(
                f"tree-pattern parameter {{{self.value.name}}} is not bound"
            )
        return Predicate(op=self.op, value=parameters[self.value.name])

    def render(self) -> str:
        """Textual form (``>= 100``, ``= "sia2016"``)."""
        return f"{self.op} {render_value(self.value)}"


@dataclass(frozen=True)
class PatternLeaf:
    """One constrained path of a tree pattern."""

    path: str
    variable: Optional[str] = None
    predicates: tuple[Predicate, ...] = ()

    def is_existence(self) -> bool:
        """True when the leaf only requires the path to exist."""
        return self.variable is None and not self.predicates

    def parameters(self) -> set[str]:
        """Names of the run-time parameters used by this leaf."""
        return {p.value.name for p in self.predicates if isinstance(p.value, Parameter)}

    def constant_equality(self) -> object | None:
        """The constant of an equality predicate, if the leaf carries one."""
        for predicate in self.predicates:
            if predicate.op == "=" and not isinstance(predicate.value, Parameter):
                return predicate.value
        return None

    def members(self) -> list[str]:
        """Textual members (one per predicate) used by :meth:`TreePattern.to_text`."""
        if not self.predicates:
            spec = f"?{self.variable}" if self.variable else "*"
            return [f"{self.path}: {spec}"]
        rendered = []
        first, *rest = self.predicates
        if self.variable:
            rendered.append(f"{self.path}: ?{self.variable} {first.render()}")
        elif first.op == "=":
            rendered.append(f"{self.path}: {render_value(first.value)}")
        else:
            rendered.append(f"{self.path}: {first.render()}")
        rendered.extend(f"{self.path}: {p.render()}" for p in rest)
        return rendered


@dataclass(frozen=True)
class TreePattern:
    """A full tree pattern: the conjunction of its leaves."""

    leaves: tuple[PatternLeaf, ...]

    def __post_init__(self) -> None:
        if not self.leaves:
            raise JSONError("a tree pattern needs at least one leaf")
        seen: set[str] = set()
        for leaf in self.leaves:
            if leaf.path in seen:
                raise JSONError(
                    f"tree pattern constrains path {leaf.path!r} twice; merge the "
                    "predicates into one leaf"
                )
            seen.add(leaf.path)

    # -- bookkeeping ---------------------------------------------------------
    def paths(self) -> tuple[str, ...]:
        """Every constrained dotted path, in pattern order."""
        return tuple(leaf.path for leaf in self.leaves)

    def leaf(self, path: str) -> PatternLeaf | None:
        """The leaf constraining ``path`` (if any)."""
        for leaf in self.leaves:
            if leaf.path == path:
                return leaf
        return None

    def variables(self) -> set[str]:
        """Mediator variables the pattern binds."""
        return {leaf.variable for leaf in self.leaves if leaf.variable}

    @functools.cached_property
    def columns(self) -> tuple[str, ...]:
        """The variables in leaf order: the header of its binding tuples."""
        return tuple(dict.fromkeys(leaf.variable for leaf in self.leaves if leaf.variable))

    def parameters(self) -> set[str]:
        """Run-time parameters the pattern needs before evaluation."""
        out: set[str] = set()
        for leaf in self.leaves:
            out |= leaf.parameters()
        return out

    def to_text(self) -> str:
        """Canonical textual form, re-parseable by :func:`parse_pattern`."""
        members: list[str] = []
        for leaf in self.leaves:
            members.extend(leaf.members())
        return "{ " + ", ".join(members) + " }"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.to_text()


def make_pattern(leaves: Iterable[PatternLeaf]) -> TreePattern:
    """Build a pattern, merging leaves that constrain the same path."""
    merged: dict[str, PatternLeaf] = {}
    for leaf in leaves:
        existing = merged.get(leaf.path)
        if existing is None:
            merged[leaf.path] = leaf
            continue
        if existing.variable and leaf.variable and existing.variable != leaf.variable:
            raise JSONError(
                f"path {leaf.path!r} bound to both ?{existing.variable} and "
                f"?{leaf.variable}"
            )
        merged[leaf.path] = PatternLeaf(
            path=leaf.path,
            variable=existing.variable or leaf.variable,
            predicates=existing.predicates + leaf.predicates,
        )
    return TreePattern(leaves=tuple(merged.values()))


def render_value(value: object) -> str:
    """Render a constant (or parameter) in the textual pattern syntax."""
    if isinstance(value, Parameter):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'
