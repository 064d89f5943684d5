"""Documents stored in the Solr-like full-text substrate.

A document is a flat or nested JSON object (Figure 2 of the paper shows
the tweet structure).  Nested fields are addressed with dotted paths
(``user.screen_name``), exactly the notation the digests use for value-set
positions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.digest.dataguide import leaves
from repro.errors import FullTextError


@dataclass
class Document:
    """One indexed document: an id plus its JSON-like field tree."""

    doc_id: str
    fields: dict[str, Any] = field(default_factory=dict)

    def get(self, path: str, default: Any = None) -> Any:
        """Return the value at a dotted ``path`` (``user.screen_name``)."""
        return _descend(self.fields, path.split("."), default)

    def flat_fields(self) -> Iterator[tuple[str, Any]]:
        """Yield ``(dotted_path, scalar_value)`` pairs for every leaf."""
        yield from leaves(self.fields)

    def text_of(self, paths: list[str]) -> str:
        """Concatenate the string values found at ``paths``."""
        parts = []
        for path in paths:
            value = self.get(path)
            if isinstance(value, str):
                parts.append(value)
            elif isinstance(value, list):
                parts.extend(str(v) for v in value)
            elif value is not None:
                parts.append(str(value))
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Document(id={self.doc_id!r}, fields={sorted(self.fields)})"


def path_getter(path: str) -> Callable[[dict[str, Any]], Any]:
    """Compile a dotted ``path`` into a function of a field tree.

    ``path_getter(p)(doc.fields) == doc.get(p)``; the path is split once,
    not once per document — for loops that read one path of many hits.
    """
    return functools.partial(_descend, parts=tuple(path.split(".")), default=None)


@functools.lru_cache(maxsize=256)
def row_builder(paths: tuple[str, ...]) -> Callable[[dict[str, Any]], tuple]:
    """Compile dotted ``paths`` into one function of a field tree that
    returns a *row*: one cell per path, ``doc.get(p)`` with a one-value
    list read as its value and a longer list as a tuple.

    The function is generated once per tuple of paths and descends each
    prefix the paths share once (``user`` once for ``user.name`` and
    ``user.id``); the keys enter as default arguments, never as source
    (as in ``collections.namedtuple``).
    """
    keys: dict[str, str] = {}
    nodes: dict[str, str] = {"": "fields"}
    lines: list[str] = []

    def read(prefix: str, key: str) -> str:
        parent, name = nodes[prefix], keys.setdefault(key, f"k{len(keys)}")
        if not prefix:  # the field tree itself is a dict
            return f"{parent}.get({name})"
        return f"{parent}.get({name}) if isinstance({parent}, dict) else None"

    for i, path in enumerate(paths):
        *heads, leaf = path.split(".")
        prefix = ""
        for head in heads:
            node = f"{prefix}.{head}" if prefix else head
            if node not in nodes:
                value = read(prefix, head)
                nodes[node] = f"n{len(nodes)}"
                lines.append(f"{nodes[node]} = {value}")
            prefix = node
        lines.append(f"c{i} = {read(prefix, leaf)}")
        lines.append(f"if isinstance(c{i}, list): c{i} = c{i}[0] if len(c{i}) == 1 else tuple(c{i})")
    cells = "".join(f"c{i}, " for i in range(len(paths)))
    namespace = {name: key for key, name in keys.items()}
    exec(f"def row(fields, {''.join(f'{name}={name}, ' for name in namespace)}):\n"
         + "".join(f"    {line}\n" for line in lines) + f"    return ({cells})", namespace)
    return namespace["row"]


def _descend(fields: dict[str, Any], parts: Sequence[str], default: Any) -> Any:
    current: Any = fields
    for part in parts:
        if isinstance(current, dict) and part in current:
            current = current[part]
        else:
            return default
    return current


def make_document(source: dict[str, Any], id_field: str = "id") -> Document:
    """Build a :class:`Document` from a raw JSON object.

    The document id is taken from ``id_field`` (dotted paths allowed); a
    missing id raises :class:`FullTextError` because the store needs a
    stable identity for updates and joins.
    """
    doc = Document(doc_id="", fields=dict(source))
    raw_id = doc.get(id_field)
    if raw_id is None:
        raise FullTextError(f"document is missing its id field {id_field!r}: {source}")
    doc.doc_id = str(raw_id)
    return doc
