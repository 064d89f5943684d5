"""The length-prefixed JSON wire protocol of the remote federation layer.

A message is one frame::

    +----------------+----------------------------------+
    | 4 bytes  !I    | UTF-8 JSON payload (length bytes)|
    +----------------+----------------------------------+

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

An answer travels as columns (revision 3), encoded from the serving
wrapper's batches and decoded into batches.  The answer to one binding
is a list of batches, each ``[columns, row_count, column_values,
tagged]``: the header once, then one JSON array per column holding
that column's ``row_count`` values in row order.  A column whose values
are all ``str`` / ``int`` / ``float`` / ``bool`` / ``None`` ships
verbatim; any other column ships through the value codec, and its index
is listed in ``tagged`` — only those columns are decoded value by
value.  ``row_count`` keeps a batch without columns (a BGP without
output variables answering "yes") distinct from no rows at all.
"""

from __future__ import annotations

import datetime
import json
import socket
import struct
from typing import Optional, Sequence

from repro.core.sources import (
    FullTextQuery,
    JSONQuery,
    RDFQuery,
    Row,
    SourceQuery,
    SQLQuery,
)
from repro.engine.batch import BindingBatch
from repro.errors import RemoteProtocolError
from repro.json.parser import parse_pattern
from repro.rdf.bgp import BGPQuery
from repro.rdf.terms import Literal, URI, Variable

#: The revision of the wire format: ``hello`` advertises it and every
#: request carries it (revision 1 carried none; revision 2 answered a
#: dict per row).  Bump it with any change an older peer would misread.
PROTOCOL_VERSION = 3

#: Upper bound on one frame; a peer announcing more is malformed.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")

#: The tag key of the value codec.
_TAG = "$"

#: The value types a column may hold to cross the wire verbatim.
_PLAIN = frozenset((str, int, float, bool, type(None)))


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

def encode_answer(batches: Sequence[BindingBatch]) -> list:
    """Wire form of one binding's answer: per batch, ``[columns,
    row_count, column_values, tagged]`` (see the module docstring)."""
    encoded = []
    for batch in batches:
        if not batch.rows:
            continue
        values, tagged = [], []
        for index, column in enumerate(zip(*batch.rows)):
            if _PLAIN.issuperset(map(type, column)):
                values.append(column)
            else:
                values.append([encode_value(value) for value in column])
                tagged.append(index)
        encoded.append([batch.columns, len(batch.rows), values, tagged])
    return encoded


def decode_answer(answer: object) -> list[BindingBatch]:
    """Inverse of :func:`encode_answer`: the binding's batches, in order,
    each batch's rows zipped from its columns."""
    if not isinstance(answer, list):
        raise RemoteProtocolError("an answer must decode from a list of batches")
    batches: list[BindingBatch] = []
    for batch in answer:
        columns, count, values, tagged = _batch_fields(batch)
        for index in tagged:
            values[index] = [decode_value(value) for value in values[index]]
        if count:
            batches.append(BindingBatch(columns, list(zip(*values)) if values else [()] * count))
    return batches


def _batch_fields(batch: object) -> tuple[tuple[str, ...], int, list, list]:
    """One encoded batch's fields, checked against each other."""
    if isinstance(batch, list) and len(batch) == 4:
        columns, count, values, tagged = batch
        if (isinstance(columns, list) and all(type(c) is str for c in columns)
                and len(set(columns)) == len(columns)
                and type(count) is int and count >= 0
                and isinstance(values, list) and len(values) == len(columns)
                and all(type(v) is list and len(v) == count for v in values)
                and isinstance(tagged, list)
                and all(type(i) is int and 0 <= i < len(values) for i in tagged)):
            return tuple(columns), count, values, tagged
    raise RemoteProtocolError(
        f"malformed answer batch (want [columns, row_count, column_values, "
        f"tagged], each column row_count long): {str(batch)[:200]}")


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

def dump_message(payload: dict) -> bytes:
    """One complete frame (length prefix included) for ``payload``."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"message of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "frame bound")
    return _LENGTH.pack(len(body)) + body


def load_message(body: bytes) -> dict:
    """Decode one frame body; raises on anything but a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RemoteProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise RemoteProtocolError("a protocol message must be a JSON object")
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
