"""JSON dataguides: data-derived structural summaries of document sources.

When a source has no declared schema, the paper uses "data-derived
structural summaries, i.e., XML or JSON Dataguides" (§2.2).  A dataguide
records every dotted path observed in a document collection together with
the value types and occurrence counts at that path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

#: Sample values a :class:`PathInfo` keeps per path.
MAX_SAMPLES = 5

@dataclass
class PathInfo:
    """What the dataguide knows about one dotted path."""

    path: str
    count: int = 0
    types: set[str] = field(default_factory=set)
    sample_values: list[object] = field(default_factory=list)

    def observe(self, value: object) -> None:
        """Record one occurrence of ``value`` at this path."""
        self.count += 1
        self.types.add(type(value).__name__)
        if len(self.sample_values) < MAX_SAMPLES and value is not None:
            self.sample_values.append(value)

    @property
    def is_numeric(self) -> bool:
        return self.types <= {"int", "float"} and bool(self.types)


class JSONDataguide:
    """Structural summary of a JSON document collection."""

    def __init__(self, name: str = "dataguide"):
        self.name = name
        self.paths: dict[str, PathInfo] = {}
        self.document_count = 0

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, documents: Iterable[Any], name: str = "dataguide") -> "JSONDataguide":
        """Build a dataguide from documents (raw dicts are accepted)."""
        guide = cls(name=name)
        for doc in documents:
            guide.observe(doc)
        return guide

    def observe(self, document: Any) -> None:
        """Add one document's paths to the dataguide: a raw dict, or a
        stored document carrying its field tree as ``fields``."""
        self.document_count += 1
        for path, value in leaves(getattr(document, "fields", document)):
            info = self.paths.get(path)
            if info is None:
                info = PathInfo(path=path)
                self.paths[path] = info
            info.observe(value)

    # ------------------------------------------------------------------
    def path_names(self) -> list[str]:
        """Every observed dotted path, sorted."""
        return sorted(self.paths)

    def info(self, path: str) -> PathInfo | None:
        """Return the :class:`PathInfo` of ``path`` if observed."""
        return self.paths.get(path)

    def coverage(self, path: str) -> float:
        """Fraction of documents in which ``path`` occurs at least once."""
        info = self.paths.get(path)
        if info is None or self.document_count == 0:
            return 0.0
        return min(1.0, info.count / self.document_count)

    def parent_children(self) -> dict[str, list[str]]:
        """Tree structure: parent path -> direct child paths."""
        children: dict[str, list[str]] = defaultdict(list)
        for path in self.path_names():
            if "." in path:
                parent = path.rsplit(".", 1)[0]
            else:
                parent = ""
            children[parent].append(path)
        return dict(children)

    def to_text(self) -> str:
        """Indented textual rendering of the dataguide tree."""
        lines = [f"dataguide {self.name} ({self.document_count} documents)"]
        for path in self.path_names():
            info = self.paths[path]
            depth = path.count(".")
            types = ",".join(sorted(info.types))
            lines.append(f"{'  ' * (depth + 1)}{path} [{types}] x{info.count}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.paths)


def leaves(value: Any, prefix: str = "") -> Iterator[tuple[str, Any]]:
    """The ``(dotted_path, scalar_value)`` pairs of a JSON value's leaves;
    a list contributes each element under its own path."""
    # Explicit stack: pathological documents (depth 10k+) must not blow
    # Python's recursion limit.  Children are pushed reversed so the
    # yield order matches the natural depth-first, left-to-right order.
    stack: list[tuple[str, Any]] = [(prefix, value)]
    while stack:
        prefix, value = stack.pop()
        if isinstance(value, dict):
            items = [(f"{prefix}.{key}" if prefix else str(key), child)
                     for key, child in value.items()]
            stack.extend(reversed(items))
        elif isinstance(value, list):
            stack.extend((prefix, child) for child in reversed(value))
        else:
            yield prefix, value
