"""Columnar binding batches for the execution hot path.

The per-row representation of the iterator engine (one ``dict`` per
binding tuple) is convenient but costly: every operator boundary copies
dictionaries and recomputes ``tuple(sorted(...))`` keys per row.  A
:class:`BindingBatch` amortises that work across a group of rows sharing
one schema: the column header is stored once, rows are plain tuples, and
per-schema artefacts (column positions, canonical key order, projection
functions) are computed once per batch instead of once per row.

Batches are *schema-uniform by construction*: :func:`batches_from_rows`
starts a new batch whenever the key set of the incoming row changes, so
the "variable absent from this row" semantics of the dict representation
is preserved exactly (an absent variable is never padded with ``None``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

#: A binding tuple at the mediator level: variable name -> value.
Row = dict[str, object]

#: Default number of rows per batch on the engine hot path.
DEFAULT_BATCH_SIZE = 256


def hashable(value: object) -> object:
    """A hashable stand-in for a binding value (lists, sets and dicts freeze)."""
    if isinstance(value, (list, set)):
        return tuple(value)
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value


def tuple_getter(keys: Sequence) -> Callable[[object], tuple]:
    """``operator.itemgetter`` returning a tuple whatever the number of keys."""
    if len(keys) == 1:
        key = keys[0]
        return lambda item: (item[key],)
    if not keys:
        return lambda item: ()
    return itemgetter(*keys)


class BindingBatch:
    """A group of binding tuples sharing one column header.

    ``columns`` is the shared header; ``rows`` holds one value tuple per
    binding, aligned with ``columns``.  Derived structures (column
    positions, the canonical sorted key order used for deduplication) are
    built lazily and cached on the batch.
    """

    __slots__ = ("columns", "rows", "_positions", "_sorted_pairs")

    def __init__(self, columns: Sequence[str], rows: list[tuple]):
        self.columns = tuple(columns)
        self.rows = rows
        self._positions: dict[str, int] | None = None
        self._sorted_pairs: tuple[tuple[str, int], ...] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(cls, rows: Sequence[Row]) -> "BindingBatch":
        """Build a batch from dict rows sharing one key set."""
        if not rows:
            return cls((), [])
        columns = tuple(rows[0])
        return cls(columns, [tuple(row[c] for c in columns) for row in rows])

    # ------------------------------------------------------------------
    def positions(self) -> dict[str, int]:
        """Column name -> index in every row tuple (cached)."""
        if self._positions is None:
            self._positions = {c: i for i, c in enumerate(self.columns)}
        return self._positions

    def sorted_pairs(self) -> tuple[tuple[str, int], ...]:
        """``(column, index)`` pairs in sorted column order (cached).

        This is the once-per-batch replacement for the per-row
        ``tuple(sorted(row.items()))`` key computation.
        """
        if self._sorted_pairs is None:
            positions = self.positions()
            self._sorted_pairs = tuple((c, positions[c]) for c in sorted(self.columns))
        return self._sorted_pairs

    def projector(self, columns: Sequence[str]) -> Callable[[tuple], tuple]:
        """A function extracting ``columns`` from a row tuple (``None`` if absent)."""
        positions = self.positions()
        indices = [positions.get(c) for c in columns]
        return lambda row: tuple(None if i is None else row[i] for i in indices)

    def dicts(self) -> Iterator[Row]:
        """Yield one fresh dict per row (the per-row interface boundary)."""
        columns = self.columns
        for row in self.rows:
            yield dict(zip(columns, row))

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BindingBatch(columns={self.columns}, rows={len(self.rows)})"


def batches_from_rows(rows: Iterable[Row],
                      size: int = DEFAULT_BATCH_SIZE) -> Iterator[BindingBatch]:
    """Group an iterable of dict rows into schema-uniform batches.

    Consecutive rows with the same key set land in the same batch (up to
    ``size`` rows); a schema change or a full batch starts a new one, so
    row order is preserved exactly.
    """
    size = max(1, size)
    columns: tuple[str, ...] = ()
    key_set: frozenset | None = None
    values_of = tuple_getter(())
    buffer: list[tuple] = []
    for row in rows:
        keys = row.keys()
        if key_set is None or keys != key_set or len(buffer) >= size:
            if key_set is not None and buffer:
                yield BindingBatch(columns, buffer)
                buffer = []
            if key_set is None or keys != key_set:
                columns = tuple(row)
                key_set = frozenset(columns)
                values_of = tuple_getter(columns)
        buffer.append(values_of(row))
    if key_set is not None and buffer:
        yield BindingBatch(columns, buffer)


def merge_spec(left_columns: Sequence[str],
               right_columns: Sequence[str]) -> tuple[tuple[str, ...], list[tuple[bool, int]]]:
    """How to merge a left and a right row tuple into one output tuple.

    Mirrors ``{**left, **right}``: the output header is the left columns
    followed by the right-only columns, and a column present on both
    sides takes the *right* value.  Returns ``(out_columns, picks)`` with
    one ``(take_right, index)`` pick per output column.
    """
    left_columns = tuple(left_columns)
    right_positions = {c: i for i, c in enumerate(right_columns)}
    out_columns = left_columns + tuple(c for c in right_columns if c not in set(left_columns))
    picks: list[tuple[bool, int]] = []
    left_positions = {c: i for i, c in enumerate(left_columns)}
    for column in out_columns:
        if column in right_positions:
            picks.append((True, right_positions[column]))
        else:
            picks.append((False, left_positions[column]))
    return out_columns, picks


class BatchAccumulator:
    """Accumulates output rows grouped by header and emits full batches.

    Join operators produce merged rows whose header depends on the pair
    of input batches; this helper buffers rows per header and yields
    :class:`BindingBatch` objects of at most ``size`` rows.
    """

    def __init__(self, size: int = DEFAULT_BATCH_SIZE):
        self.size = max(1, size)
        self._current: tuple[str, ...] | None = None
        self._rows: list[tuple] = []

    def add(self, columns: tuple[str, ...], row: tuple) -> Iterator[BindingBatch]:
        """Add one row; yields a batch when the header changes or fills up."""
        if columns != self._current or len(self._rows) >= self.size:
            yield from self.flush()
            self._current = columns
        self._rows.append(row)

    def flush(self) -> Iterator[BindingBatch]:
        """Emit whatever is buffered."""
        if self._current is not None and self._rows:
            yield BindingBatch(self._current, self._rows)
        self._rows = []
