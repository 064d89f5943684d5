"""The length-prefixed wire protocol of the remote federation layer.

A message is one frame: a JSON object, then, in a frame whose answers
pack columns, the bytes of those columns (its *tail*)::

    +---------------+------------------------------+-------------------+
    | 4 bytes  !I   | UTF-8 JSON object            | tail (tail bytes) |
    | frame length  | {"tail":<tail bytes>,...}    | packed columns    |
    +---------------+------------------------------+-------------------+

The length counts the JSON and the tail, and :data:`MAX_FRAME_BYTES`
bounds it.  A frame without packed columns has no tail and no ``tail``
key: it is a revision-3 frame.  One with a tail opens its JSON with the
tail's size, so the reader splits the frame before parsing; the parsed
size must agree.  In memory the ``tail`` key holds the bytes.

Requests are JSON objects ``{"op": ..., "protocol": PROTOCOL_VERSION,
...}``; responses are ``{"ok": true, ...}`` or ``{"ok": false, "error":
{"type", "message"}}``, each with the handler's ``server_us``.  A peer
speaking another revision is answered with a
:class:`~repro.errors.RemoteProtocolError` naming both.

Sub-queries and the request's binding rows travel through the codecs
below.  Values that plain JSON cannot represent (tuples, dates,
datetimes, and dicts whose keys collide with the tag) are wrapped in a
one-key tag object ``{"$": kind, "v": payload}``; everything else passes
through verbatim, so the common case (strings and numbers) costs nothing.

An answer travels as columns, encoded from the serving wrapper's batches
and decoded into batches.  The answer to one binding is a list of
batches, each ``[columns, row_count, column_values, tagged]``: the
header once, then per column one entry for its ``row_count`` values in
row order.  From revision 4 a wide column is *packed* into the tail, and
its entry is the descriptor ``{"$": kind, "at": offset, "size": bytes}``:

* ``"text"``: every value exactly ``str``, none holding ``"\\x00"``,
  joined on ``"\\x00"`` as strict UTF-8 (:data:`PACKED_MIN_ROWS` rows
  holding :data:`PACKED_MIN_CHARS` characters, or
  :data:`PACKED_SHORT_TEXT_ROWS` rows of any); decoded with one decode
  and one split;
* ``"int64"``: every value exactly ``int`` within int64, little-endian
  (:data:`PACKED_MIN_INTS` rows); decoded with one ``struct.unpack``.

Any other column is a JSON array: verbatim when its values are all
``str`` / ``int`` / ``float`` / ``bool`` / ``None``, else through the
value codec, its index listed in ``tagged`` — only those columns are
decoded value by value.  ``row_count`` keeps a batch without columns (a
BGP without output variables answering "yes") distinct from no rows at
all.  Every offset, size and piece count is checked on decoding.
"""

from __future__ import annotations

import datetime
import json
import socket
import struct
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Optional, Sequence

from repro.core.sources import Row, SourceQuery
from repro.fulltext.source import FullTextQuery
from repro.json.source import JSONQuery
from repro.rdf.source import RDFQuery
from repro.relational.source import SQLQuery
from repro.engine.batch import BindingBatch
from repro.errors import RemoteProtocolError
from repro.json.parser import parse_pattern
from repro.rdf.bgp import BGPQuery
from repro.rdf.terms import Literal, URI, Variable

#: The revision of the wire format: ``hello`` advertises it and every
#: request carries it (revision 1 carried none; revision 2 answered a
#: dict per row; revision 3 sent every column as JSON).  Bump it with
#: any change an older peer would misread.
PROTOCOL_VERSION = 4

#: Upper bound on one frame; a peer announcing more is malformed.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")

#: The tag key of the value codec.
_TAG = "$"

#: The value types a column may hold to cross the wire verbatim.
_PLAIN = frozenset((str, int, float, bool, type(None)))

#: The key of a frame's tail: its size on the wire, its bytes in memory.
_TAIL = "tail"
#: How a frame with a tail starts.
_TAIL_OPEN = b'{"tail":'

# When a column is packed: where a round trip of a one-column batch packed
# cost less than as JSON (a text column of 16-256 rows, its values
# averaging 4-128 characters; an int column of 16-256 rows).
#: A column shorter than this travels as JSON.
PACKED_MIN_ROWS = 32
#: A text column of this many characters is packed ...
PACKED_MIN_CHARS = 1024
#: ... and, whatever its length, one of this many rows.
PACKED_SHORT_TEXT_ROWS = 96
#: An int column is packed from this many rows.
PACKED_MIN_INTS = 64

#: The descriptor tag of each packed column kind.
_PACKED = {str: "text", int: "int64"}
#: What joins a packed text column's values.
_SEPARATOR = "\x00"


def revision_mismatch(client: object, server: object) -> str:
    """The message of the error both sides raise on a revision mismatch."""
    return (f"wire protocol revision mismatch: the client speaks "
            f"{client!r}, the server speaks {server!r}")


# ---------------------------------------------------------------------------
# Value codec
# ---------------------------------------------------------------------------

def encode_value(value: object) -> object:
    """JSON-representable form of one mediator value."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value  # json round-trips inf/nan via its own literals
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        encoded = {str(k): encode_value(v) for k, v in value.items()}
        if _TAG in encoded:
            return {_TAG: "dict", "v": encoded}
        return encoded
    if isinstance(value, datetime.datetime):
        return {_TAG: "datetime", "v": value.isoformat()}
    if isinstance(value, datetime.date):
        return {_TAG: "date", "v": value.isoformat()}
    raise RemoteProtocolError(
        f"value of type {type(value).__name__} is not wire-serialisable")


def decode_value(value: object) -> object:
    """Inverse of :func:`encode_value`; a malformed tag object raises
    :class:`~repro.errors.RemoteProtocolError`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag is None:
            return {k: decode_value(v) for k, v in value.items()}
        kind = _TAGGED.get(tag) if isinstance(tag, str) else None
        if kind is None:
            raise RemoteProtocolError(f"unknown value tag {tag!r}")
        payload_type, decode = kind
        payload = value.get("v")
        if isinstance(payload, payload_type):
            try:
                return decode(payload)
            except ValueError:  # an ISO date or datetime that is not one
                pass
        raise RemoteProtocolError(f"malformed {tag!r} value {value!r}")
    return value


#: Per tag of the value codec: the JSON type of its payload, and how the
#: payload decodes.
_TAGGED = {
    "tuple": (list, lambda items: tuple(map(decode_value, items))),
    "dict": (dict, lambda items: {k: decode_value(v) for k, v in items.items()}),
    "datetime": (str, datetime.datetime.fromisoformat),
    "date": (str, datetime.date.fromisoformat),
}


def encode_row(row: Row) -> dict:
    return {name: encode_value(value) for name, value in row.items()}


def decode_row(row: dict) -> Row:
    if not isinstance(row, dict):
        raise RemoteProtocolError("a binding row must decode from an object")
    return {name: decode_value(value) for name, value in row.items()}


# ---------------------------------------------------------------------------
# Answer codec
# ---------------------------------------------------------------------------

def encode_answers(answers: Sequence[Sequence[BindingBatch]], response: dict) -> dict:
    """``response`` carrying the answers to a batch of bindings:
    ``answers``, per binding its encoded batches (see the module
    docstring), and ``tail``, the packed columns' bytes, when a column
    is packed."""
    tail: list[bytes] = []
    response["answers"] = [[_encode_batch(batch, tail) for batch in batches if batch.rows]
                           for batches in answers]
    if tail:
        response[_TAIL] = b"".join(tail)
    return response


def _encode_batch(batch: BindingBatch, tail: list[bytes]) -> list:
    """``[columns, row_count, column_values, tagged]``; a packed column's
    bytes are appended to ``tail``."""
    rows = batch.rows
    values: list = []
    tagged: list[int] = []
    wide = len(rows) >= PACKED_MIN_ROWS
    for index, column in enumerate(zip(*rows)):
        kinds = set(map(type, column)) if wide else map(type, column)
        if wide and len(kinds) == 1 and (data := _pack(column, *kinds)) is not None:
            values.append({_TAG: _PACKED[type(column[0])],
                           "at": sum(map(len, tail)), "size": len(data)})
            tail.append(data)
        elif _PLAIN.issuperset(kinds):
            values.append(column)
        else:
            values.append([encode_value(value) for value in column])
            tagged.append(index)
    return [batch.columns, len(rows), values, tagged]


def _pack(column: tuple, kind: type) -> Optional[bytes]:
    """The bytes a column of ``kind`` values packs to; ``None`` when it
    travels as JSON: a text column too short to gain, one whose values
    hold the separator or that strict UTF-8 cannot encode (a lone
    surrogate), an int column beyond int64, any other kind."""
    if kind is str:
        text = "".join(column)
        if len(column) < PACKED_SHORT_TEXT_ROWS and len(text) < PACKED_MIN_CHARS:
            return None
        # The joined text holds exactly rows - 1 separators: no value holds one.
        if _SEPARATOR in text:
            return None
        try:
            return _SEPARATOR.join(column).encode("utf-8")
        except UnicodeEncodeError:
            return None
    if kind is int and len(column) >= PACKED_MIN_INTS:
        try:
            return struct.pack(f"<{len(column)}q", *column)
        except struct.error:  # beyond int64
            return None
    return None


def decode_answers(response: dict, bindings: int) -> list[list[BindingBatch]]:
    """Inverse of :func:`encode_answers`: per binding of the ``bindings``
    asked, its batches in order, each batch's rows zipped from its
    columns."""
    answers = response.get("answers")
    if not isinstance(answers, list) or len(answers) != bindings:
        raise RemoteProtocolError(
            f"the response did not answer each of {bindings} bindings: "
            f"{str(answers)[:200]}")
    tail = response.get(_TAIL)
    if tail is not None and not isinstance(tail, (bytes, memoryview)):
        raise RemoteProtocolError(f"a frame's tail must be its bytes, not {tail!r}")
    return [_decode_answer(answer, tail) for answer in answers]


def _decode_answer(answer: object, tail: Optional[bytes]) -> list[BindingBatch]:
    if not isinstance(answer, list):
        raise RemoteProtocolError("an answer must decode from a list of batches")
    batches: list[BindingBatch] = []
    for batch in answer:
        columns, count, values = _batch_fields(batch, tail)
        if count:
            batches.append(BindingBatch(columns, list(zip(*values)) if values else [()] * count))
    return batches


def _batch_fields(batch: object, tail: Optional[bytes]) -> tuple[tuple[str, ...], int, list]:
    """One encoded batch's header, row count and decoded columns, checked
    against each other; a column may be packed only in a frame with a
    tail."""
    if isinstance(batch, list) and len(batch) == 4:
        columns, count, values, tagged = batch
        if (isinstance(columns, list) and all(type(c) is str for c in columns)
                and len(set(columns)) == len(columns)
                and type(count) is int and count >= 0
                and isinstance(values, list) and len(values) == len(columns)
                and all(type(v) is list and len(v) == count
                        or tail is not None and type(v) is dict for v in values)
                and isinstance(tagged, list)
                and all(type(i) is int and 0 <= i < len(values)
                        and type(values[i]) is list for i in tagged)):
            for index in tagged:
                values[index] = [decode_value(value) for value in values[index]]
            if tail is not None:
                values = [column if type(column) is list else _unpack(column, count, tail)
                          for column in values]
            return tuple(columns), count, values
    raise RemoteProtocolError(
        f"malformed answer batch (want [columns, row_count, column_values, "
        f"tagged], each column row_count long): {str(batch)[:200]}")


def _unpack(descriptor: dict, count: int, tail: bytes) -> Sequence:
    """The ``count`` values of one packed column, read off the tail."""
    kind, at, size = descriptor.get(_TAG), descriptor.get("at"), descriptor.get("size")
    if not (type(at) is int and type(size) is int and 0 <= at
            and 0 <= size <= len(tail) - at):
        raise RemoteProtocolError(
            f"packed column {descriptor!r} is not inside the {len(tail)}-byte tail")
    piece = tail[at:at + size]
    if kind == "text":
        try:
            values = str(piece, "utf-8").split(_SEPARATOR)
        except UnicodeDecodeError as exc:
            raise RemoteProtocolError(f"packed text column: {exc}") from exc
        if len(values) != count:
            raise RemoteProtocolError(
                f"packed text column of {len(values)} values in a batch of {count} rows")
        return values
    if kind == "int64" and size == 8 * count:
        return struct.unpack(f"<{count}q", piece)
    raise RemoteProtocolError(
        f"malformed packed column {descriptor!r} in a batch of {count} rows")


def encode_estimate(value: float) -> object:
    """Estimates may be ``inf``, which strict JSON peers cannot carry."""
    if value != value or value == float("inf"):
        return None
    return value


def decode_estimate(value: object) -> float:
    if value is None:
        return float("inf")
    return float(value)


# ---------------------------------------------------------------------------
# Sub-query codec
# ---------------------------------------------------------------------------

def _encode_term(term: object) -> dict:
    if isinstance(term, Variable):
        return {_TAG: "var", "v": term.name}
    if isinstance(term, URI):
        return {_TAG: "uri", "v": term.value}
    if isinstance(term, Literal):
        encoded: dict = {_TAG: "lit", "v": term.value}
        if term.datatype is not None:
            encoded["dt"] = term.datatype
        if term.language is not None:
            encoded["lang"] = term.language
        return encoded
    raise RemoteProtocolError(
        f"RDF term of type {type(term).__name__} is not wire-serialisable")


def _decode_term(term: dict):
    tag = term.get(_TAG) if isinstance(term, dict) else None
    value = term.get("v") if tag is not None else None
    if tag == "var" and isinstance(value, str):
        return Variable(value)
    if tag == "uri" and isinstance(value, str):
        return URI(value)
    if tag == "lit" and value is not None:
        return Literal(value, datatype=term.get("dt"), language=term.get("lang"))
    raise RemoteProtocolError(f"unknown RDF term encoding {term!r}")


def encode_query(query: SourceQuery) -> dict:
    """Wire form of one per-model sub-query."""
    if isinstance(query, SQLQuery):
        return {"kind": "sql", "sql": query.sql,
                "output_columns": list(query.output_columns)}
    if isinstance(query, FullTextQuery):
        return {"kind": "fulltext", "template": query.query_template,
                "fields": [[v, p] for v, p in query.output_fields],
                "limit": query.limit, "sort_by": query.sort_by}
    if isinstance(query, JSONQuery):
        return {"kind": "json", "pattern": query.pattern.to_text(),
                "limit": query.limit}
    if isinstance(query, RDFQuery):
        bgp = query.bgp
        return {"kind": "rdf", "name": bgp.name,
                "head": [v.name for v in bgp.head],
                "patterns": [[_encode_term(t) for t in pattern]
                             for pattern in bgp.patterns]}
    raise RemoteProtocolError(
        f"sub-query of type {type(query).__name__} is not wire-serialisable")


def decode_query(payload: dict) -> SourceQuery:
    """Inverse of :func:`encode_query`; a malformed payload raises
    :class:`~repro.errors.RemoteProtocolError`, and text its model's
    parser rejects raises that parser's error, as at planning."""
    if not isinstance(payload, dict):
        raise RemoteProtocolError("a sub-query must decode from an object")
    kind = payload.get("kind")
    if kind not in ("sql", "fulltext", "json", "rdf"):
        raise RemoteProtocolError(f"unknown sub-query kind {kind!r}")
    try:
        if kind == "json":
            return JSONQuery(pattern=parse_pattern(payload["pattern"]),
                             limit=payload.get("limit"))
        if kind == "rdf":
            patterns = tuple(
                tuple(_decode_term(t) for t in pattern)
                for pattern in payload.get("patterns") or ())
            bgp = BGPQuery.create(head=[Variable(n) for n in payload.get("head") or ()],
                                  patterns=patterns,
                                  name=payload.get("name") or "q")
            return RDFQuery(bgp=bgp)
        if kind == "sql":
            query = SQLQuery(sql=payload["sql"],
                             output_columns=tuple(payload.get("output_columns") or ()))
        else:
            query = FullTextQuery(
                query_template=payload["template"],
                output_fields=tuple((v, p) for v, p in payload.get("fields") or ()),
                limit=payload.get("limit"), sort_by=payload.get("sort_by"))
        query.template  # parse now: a template that is not text fails here, typed
        return query
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RemoteProtocolError(f"malformed {kind} sub-query: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def _compact_json() -> Callable[[object], str]:
    """The compact JSON text of a payload, from one encoder built here:
    ``json.dumps`` with ``separators`` builds its encoder on every call,
    which costs a small frame more than encoding it."""
    encoder = json.JSONEncoder(separators=(",", ":"), check_circular=False)
    if c_make_encoder is None:  # an interpreter without json's C accelerator
        return encoder.encode
    chunks = c_make_encoder(None, encoder.default, encode_basestring_ascii, None,
                            ":", ",", False, False, True)
    return lambda payload: "".join(chunks(payload, 0))


_dumps = _compact_json()


def dump_message(payload: dict) -> bytes:
    """One complete frame (length prefix included) for ``payload``; its
    ``tail`` bytes, if any, follow the JSON body, which then opens with
    their size."""
    tail = payload.get(_TAIL)
    if tail is not None:
        head = {_TAIL: len(tail)}
        head.update((key, value) for key, value in payload.items() if key != _TAIL)
        body = _dumps(head).encode("utf-8")
    else:
        body = _dumps(payload).encode("utf-8")
        tail = b""
    size = len(body) + len(tail)
    if size > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"message of {size} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "frame bound")
    return b"".join((_LENGTH.pack(size), body, tail))


def load_message(body: bytes) -> dict:
    """Decode one frame body; raises on anything but a JSON object, or a
    tail whose size the object does not state."""
    tail = None
    if body.startswith(_TAIL_OPEN):
        end = body.find(b",", len(_TAIL_OPEN), len(_TAIL_OPEN) + 12)
        digits = body[len(_TAIL_OPEN):end] if end > 0 else b""
        size = int(digits) if digits.isdigit() else -1
        if not 0 <= size <= len(body) - end:
            raise RemoteProtocolError(
                f"malformed frame: a tail of {digits!r} bytes in a "
                f"{len(body)}-byte frame")
        tail = memoryview(body)[len(body) - size:]
        body = body[:len(body) - size]
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RemoteProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise RemoteProtocolError("a protocol message must be a JSON object")
    if tail is not None:
        if payload.get(_TAIL) != len(tail):
            raise RemoteProtocolError(
                f"malformed frame: it states a tail of {payload.get(_TAIL)!r} "
                f"bytes, not the {len(tail)} after its body")
        payload[_TAIL] = tail
    return payload


def roundtrip(payload: dict) -> dict:
    """Serialise and re-parse ``payload`` (the in-process transport uses
    this so loopback traffic exercises the same fidelity limits as TCP)."""
    return load_message(dump_message(payload)[_LENGTH.size:])


def send_frame(sock: socket.socket, payload: dict) -> None:
    sock.sendall(dump_message(payload))


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF before a new frame starts."""
    header = _recv_exact(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"peer announced a {length}-byte frame (max {MAX_FRAME_BYTES})")
    body = _recv_exact(sock, length, eof_ok=False)
    assert body is not None
    return load_message(body)


def _recv_exact(sock: socket.socket, count: int,
                eof_ok: bool) -> Optional[bytes]:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ConnectionResetError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
