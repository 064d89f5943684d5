"""Per-path inverted indexes over a JSON document collection.

A :class:`PathIndex` maps every *normalised* leaf value observed at one
dotted path to the set of documents carrying it.  Array elements are
indexed individually, matching the existential tree-pattern semantics.
The indexes serve two purposes: candidate pruning before the matcher
verifies documents (predicate pushdown), and cardinality statistics for
the planner's selectivity ordering.
"""

from __future__ import annotations


def normalize(value: object) -> object:
    """Normalise a leaf value for index keys (keyword-style strings)."""
    if isinstance(value, str):
        return value.lower()
    if isinstance(value, (dict, list, set)):
        return str(value)
    return value


class PathIndex:
    """Inverted index of one dotted path: normalised value -> doc ids."""

    def __init__(self, path: str):
        self.path = path
        self.postings: dict[object, set[str]] = {}
        self.presence: set[str] = set()
        #: doc id -> values it holds at the path beyond its first.  Sparse
        #: (most paths hold one value per document); it is what lets
        #: ``remove`` decide presence without scanning the postings.
        self._extra_values: dict[str, int] = {}
        self.occurrences = 0
        #: Type name -> occurrences of values of that type (what the
        #: store's dataguide reports, maintained here so a write never
        #: forces a pass over the documents).
        self.types: dict[str, int] = {}

    # -- maintenance ---------------------------------------------------------
    def add(self, doc_id: str, value: object) -> None:
        """Index one leaf value of one document."""
        key = normalize(value)
        self.postings.setdefault(key, set()).add(doc_id)
        if doc_id in self.presence:
            self._extra_values[doc_id] = self._extra_values.get(doc_id, 0) + 1
        else:
            self.presence.add(doc_id)
        self.occurrences += 1
        name = type(value).__name__
        self.types[name] = self.types.get(name, 0) + 1

    def remove(self, doc_id: str, value: object) -> None:
        """Drop one previously indexed value of ``doc_id``."""
        key = normalize(value)
        bucket = self.postings.get(key)
        if bucket is not None:
            bucket.discard(doc_id)
            if not bucket:
                del self.postings[key]
        self.occurrences = max(0, self.occurrences - 1)
        name = type(value).__name__
        if self.types.get(name, 0) > 1:
            self.types[name] -= 1
        else:
            self.types.pop(name, None)
        extra = self._extra_values.pop(doc_id, 0)
        if extra > 1:
            self._extra_values[doc_id] = extra - 1
        elif not extra:
            self.presence.discard(doc_id)

    # -- lookups -------------------------------------------------------------
    def lookup_eq(self, value: object) -> set[str]:
        """Documents carrying ``value`` (keyword-style equality) at the path."""
        return set(self.postings.get(normalize(value), ()))

    def lookup_cmp(self, op: str, value: object) -> set[str]:
        """Documents with *some* element at the path satisfying ``op value``."""
        if op == "=":
            return self.lookup_eq(value)
        out: set[str] = set()
        reference = normalize(value)
        for key, doc_ids in self.postings.items():
            # 1 and True share a key, whichever was filed first: a bool
            # key's documents may hold the number (candidates are verified).
            if compare(op, key, reference) or (
                    isinstance(key, bool) and compare(op, int(key), reference)):
                out |= doc_ids
        return out

    # -- statistics ----------------------------------------------------------
    @property
    def document_count(self) -> int:
        """Number of documents in which the path occurs."""
        return len(self.presence)

    def average_postings(self) -> float:
        """Expected matches of an equality with an unknown (bound) value."""
        if not self.postings:
            return 0.0
        return self.document_count / len(self.postings)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"PathIndex(path={self.path!r}, distinct={len(self.postings)}, "
                f"documents={self.document_count})")


def compare(op: str, left: object, right: object) -> bool:
    """Apply a comparison, returning False on incomparable types."""
    if op == "=":
        return normalize(left) == normalize(right)
    if op == "!=":
        return normalize(left) != normalize(right)
    if isinstance(left, bool) or isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        left, right = left.lower(), right.lower()
    else:
        return False
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    return False
