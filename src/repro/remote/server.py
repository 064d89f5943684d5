"""Reference servers exposing a :class:`DataSource` over the wire protocol.

:class:`RemoteSourceHandler` is transport-agnostic — one request payload
in, one response payload out — so the in-process loopback transport and
the TCP server share every line of the serving logic.  The supported
operations mirror the :class:`~repro.core.sources.DataSource` protocol:

``hello``
    Source metadata (model, name, uri, size, description, version) and
    the protocol revision the server speaks.
``version``
    Current store version (``null`` for unversioned sources).
``pin``
    Pin a server-side snapshot; returns its version.  Subsequent
    ``execute_batch`` requests carrying that version are answered from
    the snapshot, so a remote plan observes one consistent state even
    while the live store is written.  On an unchanged store it costs
    what ``version`` does.
``execute_batch``
    Evaluate one sub-query for a batch of bindings (one binding is a
    batch of one): the one data operation.  Each binding's answer ships
    as column-major batches (:func:`~repro.remote.protocol.encode_answers`).
``estimate``
    The wrapper's cardinality estimate (``null`` encodes ``inf``).

Every request names the protocol revision it speaks; any other revision
is refused with a :class:`~repro.errors.RemoteProtocolError` naming
both.  Every response carries ``server_us``, the time its handler took.
Errors are reported as ``{"ok": false, "error": {"type", "message"}}``;
the client re-raises registered :class:`~repro.errors.ReproError`
subclasses by name.
"""

from __future__ import annotations

import logging
import socketserver
import threading
import time
from typing import Optional

from repro.core.sources import DataSource, SourceQuery
from repro.errors import RemoteProtocolError, ReproError
from repro.remote import protocol

logger = logging.getLogger(__name__)

#: Server-side snapshots kept per source (latest versions win).
MAX_PINNED_SNAPSHOTS = 8

#: Decoded sub-queries kept per source, keyed by their wire form (the
#: oldest goes first).
MAX_DECODED_QUERIES = 64


class RemoteSourceHandler:
    """Serve one :class:`DataSource` to any transport.

    Thread-safe: the TCP server dispatches concurrent connections into
    one shared handler.  Pinned snapshots are memoised per version so
    every remote query pinning an unchanged source shares one wrapper,
    and decoded sub-queries per wire form so a repeated sub-query is
    parsed once, as the local path parses each CMQ's atoms once.
    """

    def __init__(self, source: DataSource):
        self.source = source
        self._lock = threading.Lock()
        self._pinned: dict[int, DataSource] = {}
        self._queries: dict[str, SourceQuery] = {}

    def handle(self, request: dict) -> dict:
        """Answer one request payload; never raises."""
        started = time.perf_counter()
        try:
            response = self._dispatch(request)
        except ReproError as exc:
            response = {"ok": False, "error": {"type": type(exc).__name__,
                                               "message": str(exc)}}
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("remote handler for %s failed", self.source.uri)
            response = {"ok": False, "error": {"type": type(exc).__name__,
                                               "message": str(exc)}}
        response["server_us"] = round((time.perf_counter() - started) * 1e6)
        return response

    # -- operations --------------------------------------------------------

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if request.get("protocol") != protocol.PROTOCOL_VERSION:
            raise RemoteProtocolError(protocol.revision_mismatch(
                request.get("protocol"), protocol.PROTOCOL_VERSION))
        if op == "hello":
            source = self.source
            return {"ok": True, "protocol": protocol.PROTOCOL_VERSION,
                    "model": source.model, "name": source.name,
                    "uri": source.uri, "size": source.size(),
                    "description": source.description,
                    "version": source.version()}
        if op == "version":
            return {"ok": True, "version": self.source.version()}
        if op == "pin":
            return {"ok": True, "version": self._pin()}
        if op == "execute_batch":
            target = self._target(request.get("version"))
            query = self._query(request.get("query"))
            batch = request.get("bindings_batch")
            if not isinstance(batch, list):
                raise RemoteProtocolError("bindings_batch must be a list of rows")
            answers = target.execute_batch(query, [protocol.decode_row(b) for b in batch])
            return protocol.encode_answers(
                answers, {"ok": True, "version": target.pinned_at})
        if op == "estimate":
            target = self._target(request.get("version"))
            query = self._query(request.get("query"))
            bound = request.get("bound_variables") or []
            if not (isinstance(bound, list) and all(isinstance(n, str) for n in bound)):
                raise RemoteProtocolError("bound_variables must be a list of names")
            estimate = target.estimate(query, set(bound))
            return {"ok": True, "version": target.pinned_at,
                    "estimate": protocol.encode_estimate(estimate)}
        raise RemoteProtocolError(f"unknown operation {op!r}")

    def _query(self, payload: object) -> SourceQuery:
        """The sub-query a request carries, decoded once per distinct wire
        form (``repr`` tells JSON values of different types apart); a
        payload that fails to decode is not kept."""
        key = repr(payload)
        with self._lock:
            query = self._queries.get(key)
        if query is None:
            query = protocol.decode_query(payload)
            with self._lock:
                self._queries[key] = query
                if len(self._queries) > MAX_DECODED_QUERIES:
                    del self._queries[next(iter(self._queries))]
        return query

    def _pin(self) -> Optional[int]:
        version = self.source.version()
        with self._lock:
            if version in self._pinned:
                # Unchanged since it was last pinned: no snapshot to take.
                return version
        pinned = self.source.pin()
        if pinned.pinned_at is not None:
            version = pinned.pinned_at
        if version is None:
            return None
        with self._lock:
            self._pinned[version] = pinned
            while len(self._pinned) > MAX_PINNED_SNAPSHOTS:
                del self._pinned[min(self._pinned)]
        return version

    def _target(self, version: object) -> DataSource:
        """The wrapper serving one execute request.

        A request carrying a pin version is answered from that snapshot;
        an unknown (evicted / never pinned) version falls back to the
        live wrapper — the client detects the mismatch via the response's
        ``version`` and treats it as a retryable protocol error.
        """
        if version is None:
            return self.source
        if not isinstance(version, int):
            raise RemoteProtocolError(
                f"pin version must be an integer, got {type(version).__name__}")
        with self._lock:
            pinned = self._pinned.get(version)
        return pinned if pinned is not None else self.source


class _Connection(socketserver.BaseRequestHandler):
    """One keep-alive client connection: frames in, frames out, EOF ends."""

    def handle(self) -> None:
        handler: RemoteSourceHandler = self.server.source_handler
        while True:
            try:
                request = protocol.recv_frame(self.request)
            except (ConnectionError, OSError):
                return
            except RemoteProtocolError as exc:
                try:
                    protocol.send_frame(self.request, {
                        "ok": False,
                        "error": {"type": "RemoteProtocolError",
                                  "message": str(exc)}})
                except OSError:
                    pass
                return
            if request is None:
                return
            response = handler.handle(request)
            try:
                protocol.send_frame(self.request, response)
            except (ConnectionError, OSError):
                return


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class SourceServer:
    """A TCP server exposing one :class:`DataSource` on ``host:port``.

    ``port=0`` (the default) binds an ephemeral port; read it back from
    :attr:`address` after :meth:`start`.  Usable as a context manager.
    """

    def __init__(self, source: DataSource, host: str = "127.0.0.1",
                 port: int = 0):
        self.handler = RemoteSourceHandler(source)
        self._server = _Server((host, port), _Connection)
        self._server.source_handler = self.handler
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return host, port

    def start(self) -> "SourceServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name=f"source-server-{self.handler.source.name}", daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "SourceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
