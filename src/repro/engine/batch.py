"""Binding batches: the one row currency inside the mediator.

A :class:`BindingBatch` is a column header stored once plus one value
tuple per binding.  Each wrapper answers in batches over the tuples its
store already holds, and they stay batches through the wire, the result
cache, the atom's translation, the joins, projection and deduplication;
dict rows are built exactly once, for the client.  Rows are immutable,
so readers *share* them.

Batches are *schema-uniform by construction*: :func:`batches_from_rows`
starts a new batch whenever the key set of the incoming row changes, so
the "variable absent from this row" semantics of the dict representation
is preserved exactly (an absent variable is never padded with ``None``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

#: A binding tuple at the mediator's public edge: variable name -> value.
Row = dict[str, object]

#: Default number of bindings per bind-join flush.
DEFAULT_BATCH_SIZE = 256

#: Bound on the memo of compiled row constructors, one per header.
MAX_ROW_CONSTRUCTORS = 512


def freeze(value: object) -> object:
    """A hashable stand-in for an unhashable binding value, at any depth.

    Lists freeze to tuples (``[1, 2]`` and ``(1, 2)`` are one value),
    sets and dicts to frozensets (their members are never ordered); a
    hashable value comes back equal.  The fallback of callers that key
    rows by their raw tuples, used only once that raised ``TypeError``.
    """
    if isinstance(value, (list, tuple)):
        return tuple(map(freeze, value))
    if isinstance(value, (set, frozenset)):
        return frozenset(map(freeze, value))
    if isinstance(value, dict):
        return frozenset((freeze(key), freeze(item)) for key, item in value.items())
    return value


def dedupe(items: Iterable, keys: Iterable[tuple], seen: set) -> list:
    """The ``items`` whose key is new to ``seen`` (then added), in order;
    a key is a row's value tuple, frozen only when it cannot be hashed.
    Rows keyed by themselves (``keys is items``) into an empty ``seen``
    go through ``dict.fromkeys``: each row is hashed once, not twice."""
    if keys is items and not seen:
        try:
            fresh = dict.fromkeys(items)
        except TypeError:  # an unhashable row: the loop below freezes it
            pass
        else:
            seen.update(fresh)  # from a dict: its stored hashes, no row hashed again
            return list(fresh)
    keep = []
    for item, key in zip(items, keys):
        try:
            if key in seen:
                continue
        except TypeError:
            key = freeze(key)
            if key in seen:
                continue
        seen.add(key)
        keep.append(item)
    return keep


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
    binding, aligned with ``columns``.

    **Immutability and sharing contract.**  A row tuple never changes,
    and once a batch has left its maker — yielded by an operator, stored
    in the result cache, returned from a probe — its ``rows`` list is
    never mutated either: whoever needs other rows builds a new list (an
    insert-only cache repair is ``old.rows + new_rows``).  Hence every
    reader of a cached answer, and every renaming of it, shares one list.
    """

    __slots__ = ("columns", "rows", "_positions")

    def __init__(self, columns: Sequence[str], rows: list[tuple]):
        self.columns = tuple(columns)
        self.rows = rows
        self._positions: dict[str, int] | None = None

    def positions(self) -> dict[str, int]:
        """Column name -> index in every row tuple (cached)."""
        if self._positions is None:
            self._positions = {c: i for i, c in enumerate(self.columns)}
        return self._positions

    def projector(self, columns: Sequence[str]) -> Callable[[tuple], tuple]:
        """A function extracting ``columns`` from a row tuple.

        One compiled ``itemgetter`` when the batch has every column; a
        header lacking one gets the slower ``None``-padding form.
        """
        positions = self.positions()
        indices = [positions.get(c) for c in columns]
        if None not in indices:
            return tuple_getter(indices)
        return lambda row: tuple(None if i is None else row[i] for i in indices)

    def renamed(self, renames: Mapping[str, str]) -> "BindingBatch":
        """The batch under renamed columns: a new header over the *same*
        row list (``self`` when no column changes)."""
        if not renames:
            return self
        columns = tuple(map(renames.get, self.columns, self.columns))
        return self if columns == self.columns else BindingBatch(columns, self.rows)

    def dicts(self) -> list[Row]:
        """One fresh dict per row (the public-edge representation)."""
        return _row_constructor(self.columns)(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BindingBatch(columns={self.columns}, rows={len(self.rows)})"


@lru_cache(maxsize=MAX_ROW_CONSTRUCTORS)
def _row_constructor(columns: tuple[str, ...]) -> Callable[[Iterable[tuple]], list[Row]]:
    """``[dict(zip(columns, row)) for row in rows]`` compiled to one list of
    ``{k0: v0, ...}`` literals; the columns enter as default arguments,
    never as source (as in ``collections.namedtuple``)."""
    at = range(len(columns))
    namespace = {f"k{i}": column for i, column in zip(at, columns)}
    exec(f"def make(rows, {''.join(f'k{i}=k{i}, ' for i in at)}):\n"
         f"    return [{{{', '.join(f'k{i}: v{i}' for i in at)}}}"
         f" for {''.join(f'v{i}, ' for i in at) or '_'} in rows]", namespace)
    return namespace["make"]


@lru_cache(maxsize=MAX_ROW_CONSTRUCTORS)
def tuple_decoder(width: int) -> Callable[[Iterable[tuple], Mapping], list[tuple]]:
    """``[tuple(d[v] for v in row) for row in rows]`` compiled for rows of
    ``width`` ids (``d``: an RDF graph's id -> Python value table)."""
    at = range(width)
    exec(f"def decode(rows, d):\n"
         f"    return [({''.join(f'd[v{i}], ' for i in at)})"
         f" for {''.join(f'v{i}, ' for i in at) or '_'} in rows]", namespace := {})
    return namespace["decode"]


def as_answer(columns: Sequence[str], rows: list[tuple]) -> list[BindingBatch]:
    """One binding's answer over ``columns``: its one batch, or ``[]``."""
    return [BindingBatch(columns, rows)] if rows else []


def batches_from_rows(rows: Iterable[Row]) -> Iterator[BindingBatch]:
    """Group an iterable of dict rows into schema-uniform batches.

    Consecutive rows with the same key set land in the same batch; a
    schema change starts a new one, so row order is preserved exactly.
    """
    columns: tuple[str, ...] = ()
    key_set: frozenset | None = None
    values_of = tuple_getter(())
    buffer: list[tuple] = []
    for row in rows:
        if key_set is None or row.keys() != key_set:
            if buffer:
                yield BindingBatch(columns, buffer)
                buffer = []
            columns = tuple(row)
            key_set = frozenset(columns)
            values_of = tuple_getter(columns)
        buffer.append(values_of(row))
    if buffer:
        yield BindingBatch(columns, buffer)


def as_batches(answer: Iterable) -> list[BindingBatch]:
    """An answer as schema-uniform batches: the engine's one input edge.
    Batches pass through untouched; dict rows (a source defining only
    ``execute``, a test's rows) are grouped by :func:`batches_from_rows`."""
    if not isinstance(answer, list):
        answer = list(answer)
    if not answer or isinstance(answer[0], BindingBatch):
        return answer
    return list(batches_from_rows(answer))


def row_count(batches: Iterable[BindingBatch]) -> int:
    """Total number of rows held by ``batches``."""
    return sum(map(len, batches))


def dict_rows(batches: Iterable[BindingBatch]) -> list[Row]:
    """``batches`` as fresh dict rows, in order."""
    return list(chain.from_iterable(map(BindingBatch.dicts, batches)))


class SeenRows:
    """The rows met so far, whatever batch brought them.

    Rows binding the same variables to equal values are one row.  A row
    is keyed by its own value tuple, in the column order of the first
    batch met with that column *set*; a batch listing the same columns
    in another order is re-ordered through one compiled getter.
    """

    def __init__(self) -> None:
        self._schemas: dict[frozenset, tuple[tuple[str, ...], set]] = {}

    def fresh(self, batch: BindingBatch) -> list[tuple]:
        """The rows of ``batch`` not met before, in order (now met)."""
        columns, seen = self._schemas.setdefault(frozenset(batch.columns),
                                                 (batch.columns, set()))
        keys = (batch.rows if columns == batch.columns
                else map(batch.projector(columns), batch.rows))
        return dedupe(batch.rows, keys, seen)


def _key_expression(names: Mapping[str, str], keys: Sequence[str]) -> str:
    """A hash key as source: the bare cell of one key, a tuple of several,
    ``None`` for a key column the header lacks (``names``: column -> cell)."""
    cells = [names.get(key, "None") for key in keys]
    return cells[0] if len(cells) == 1 else f"({''.join(f'{cell}, ' for cell in cells)})"


@lru_cache(maxsize=MAX_ROW_CONSTRUCTORS)
def key_reader(columns: tuple[str, ...], keys: tuple[str, ...],
               ) -> Callable[[Iterable[tuple]], list]:
    """``keys_of(rows)``: the hash key of each row over ``columns``, in the
    form :func:`row_merger`'s probe looks it up by, in one comprehension."""
    names = {c: f"v{i}" for i, c in enumerate(columns)}
    exec(f"def keys_of(rows):\n    return [{_key_expression(names, keys)}"
         f" for {''.join(f'{v}, ' for v in names.values()) or '_'} in rows]",
         namespace := {})
    return namespace["keys_of"]


@lru_cache(maxsize=MAX_ROW_CONSTRUCTORS)
def row_merger(outer_columns: tuple[str, ...], inner_columns: tuple[str, ...], *,
               outer_is_left: bool = True, agree: bool = True,
               key: tuple[str, ...] | None = None, columns: tuple[str, ...] | None = None,
               ) -> tuple[tuple[str, ...], Callable[..., list[tuple]]]:
    """The merge of a join's two headers, one comprehension compiled per
    pair: ``(out_columns, merge)``.

    Each outer row meets its inner rows.  A merged row mirrors
    ``{**left, **right}``, the outer row being the left one when
    ``outer_is_left``: the header is the left columns followed by the
    right-only ones, and a column on both sides takes the *right* value.
    ``columns``, when given, is the header instead, each of its columns
    read off that merged row (``None`` when neither side has it).
    ``agree`` keeps only the inner rows equal to their outer row on every
    shared column (``not l != r``: a NaN never agrees).

    Without ``key``, ``merge(run)`` reads a run of ``(outer_row,
    inner_rows)`` pairs (the bind join).  With the join's ``key``
    columns, ``merge(rows, get)`` finds each outer row's inner rows as
    ``get(KEY, ())``, ``KEY`` inlined as :func:`key_reader` reads it (the
    hash join's probe).  Only positions enter the source.
    """
    outer = {c: f"o{i}" for i, c in enumerate(outer_columns)}
    inner = {c: f"i{j}" for j, c in enumerate(inner_columns)}
    left, right = (outer, inner) if outer_is_left else (inner, outer)
    if columns is None:
        columns = tuple(left) + tuple(c for c in right if c not in left)
    cells = "".join(f"{right.get(c) or left.get(c, 'None')}, " for c in columns)
    checks = "".join(f" if not {o} != {inner[c]}" for c, o in outer.items()
                     if agree and c in inner)
    outer_row = f"({''.join(f'{o}, ' for o in outer.values())})" if outer else "_"
    inner_row = "".join(f"{i}, " for i in inner.values()) or "_"
    head, rows, found = (("run", f"{outer_row}, found in run", "found") if key is None else
                         ("rows, get", f"{outer_row} in rows",
                          f"get({_key_expression(outer, key)}, ())"))
    exec(f"def merge({head}):\n    return [({cells}) for {rows}"
         f" for {inner_row} in {found}{checks}]", namespace := {})
    return columns, namespace["merge"]
