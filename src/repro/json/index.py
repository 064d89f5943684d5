"""Per-path inverted indexes over a JSON document collection.

A :class:`PathIndex` maps every *normalised* leaf value observed at one
dotted path to the documents carrying it: a 1-tuple while one does, a
set from the second on (values held once, ids and texts, cost no set),
back to a 1-tuple when removals leave one.  Array elements are indexed
individually, matching the existential tree-pattern semantics.  Only the
number of documents holding the path is kept (they are the union of the
buckets).  The indexes serve two purposes: candidate pruning before the
matcher verifies documents (predicate pushdown), and cardinality
statistics for the planner's selectivity ordering.
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
        #: Key -> ``(doc_id,)`` or a set of two or more ids.
        self.postings: dict[object, tuple[str] | set[str]] = {}
        #: Number of documents in which the path occurs.
        self.document_count = 0
        self.occurrences = 0
        #: Type name -> occurrences of values of that type (what the
        #: store's dataguide reports, maintained here so a write never
        #: forces a pass over the documents).
        self.types: dict[str, int] = {}

    # -- maintenance ---------------------------------------------------------
    def add(self, doc_id: str, values: list[object]) -> None:
        """Index every value one (newly indexed) document holds at the path."""
        self.document_count += 1
        self.occurrences += len(values)
        postings, types = self.postings, self.types
        for value in values:
            key = value.lower() if type(value) is str else normalize(value)
            bucket = postings.get(key)
            if bucket is None:
                postings[key] = (doc_id,)
            elif type(bucket) is set:
                bucket.add(doc_id)
            elif bucket[0] != doc_id:
                postings[key] = {bucket[0], doc_id}
            name = type(value).__name__
            types[name] = types.get(name, 0) + 1

    def remove(self, doc_id: str, values: list[object]) -> None:
        """Drop every value ``doc_id`` held at the path (what ``add`` took)."""
        self.document_count -= 1
        postings = self.postings
        for value in values:
            key = normalize(value)
            bucket = postings.get(key)
            if type(bucket) is set:
                bucket.discard(doc_id)
                if len(bucket) == 1:
                    postings[key] = tuple(bucket)
            elif bucket is not None and bucket[0] == doc_id:
                del postings[key]
            self.occurrences = max(0, self.occurrences - 1)
            name = type(value).__name__
            if self.types.get(name, 0) > 1:
                self.types[name] -= 1
            else:
                self.types.pop(name, None)

    # -- lookups -------------------------------------------------------------
    def documents(self) -> set[str]:
        """Documents in which the path occurs (the union of the buckets)."""
        return set().union(*self.postings.values())

    def bucket(self, value: object) -> tuple[str] | set[str] | tuple[()]:
        """Documents carrying ``value`` at the path (the bucket: read-only)."""
        return self.postings.get(normalize(value), ())

    def lookup_eq(self, value: object) -> set[str]:
        """Documents carrying ``value`` (keyword-style equality) at the path."""
        return set(self.bucket(value))

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
                out.update(doc_ids)
        return out

    # -- statistics ----------------------------------------------------------
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
