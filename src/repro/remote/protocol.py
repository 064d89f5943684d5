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

Binding rows and sub-queries travel through the codecs below.  Values
that plain JSON cannot represent (tuples, dates, datetimes, and dicts
whose keys collide with the tag) are wrapped in a one-key tag object
``{"$": kind, "v": payload}``; everything else passes through verbatim,
so the common case (strings and numbers) costs nothing.
"""

from __future__ import annotations

import datetime
import json
import socket
import struct
from typing import Optional

from repro.core.sources import (
    FullTextQuery,
    JSONQuery,
    RDFQuery,
    Row,
    SourceQuery,
    SQLQuery,
)
from repro.errors import RemoteProtocolError
from repro.json.parser import parse_pattern
from repro.rdf.bgp import BGPQuery
from repro.rdf.terms import Literal, URI, Variable

#: The revision of the wire format: ``hello`` advertises it and every
#: request carries it (revision 1 carried none).  Bump it with any
#: change an older peer would misread.
PROTOCOL_VERSION = 2

#: Upper bound on one frame; a peer announcing more is malformed.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")

#: The tag key of the value codec.
_TAG = "$"


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
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag is None:
            return {k: decode_value(v) for k, v in value.items()}
        if tag == "tuple":
            return tuple(decode_value(item) for item in value["v"])
        if tag == "dict":
            return {k: decode_value(v) for k, v in value["v"].items()}
        if tag == "datetime":
            return datetime.datetime.fromisoformat(value["v"])
        if tag == "date":
            return datetime.date.fromisoformat(value["v"])
        raise RemoteProtocolError(f"unknown value tag {tag!r}")
    return value


def encode_row(row: Row) -> dict:
    return {name: encode_value(value) for name, value in row.items()}


def decode_row(row: dict) -> Row:
    if not isinstance(row, dict):
        raise RemoteProtocolError("a binding row must decode from an object")
    return {name: decode_value(value) for name, value in row.items()}


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
    if tag == "var":
        return Variable(term["v"])
    if tag == "uri":
        return URI(term["v"])
    if tag == "lit":
        return Literal(term["v"], datatype=term.get("dt"),
                       language=term.get("lang"))
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
    """Inverse of :func:`encode_query`."""
    if not isinstance(payload, dict):
        raise RemoteProtocolError("a sub-query must decode from an object")
    kind = payload.get("kind")
    if kind == "sql":
        return SQLQuery(sql=payload["sql"],
                        output_columns=tuple(payload.get("output_columns") or ()))
    if kind == "fulltext":
        return FullTextQuery(
            query_template=payload["template"],
            output_fields=tuple((v, p) for v, p in payload.get("fields") or ()),
            limit=payload.get("limit"), sort_by=payload.get("sort_by"))
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
    raise RemoteProtocolError(f"unknown sub-query kind {kind!r}")


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
