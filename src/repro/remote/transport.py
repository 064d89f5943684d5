"""Client transports for the remote federation wire protocol.

A transport turns one request payload into one response payload.  Three
implementations:

* :class:`TCPTransport` — pooled keep-alive connections to a
  :class:`~repro.remote.server.SourceServer`;
* :class:`LocalTransport` — in-process loopback to a
  :class:`~repro.remote.server.RemoteSourceHandler`, without sockets;
* :class:`FaultyTransport` — a *deterministic* fault-injection proxy
  around any other transport, for reproducible chaos tests.

Transport failures are always surfaced as the typed
:class:`~repro.errors.RemoteError` subclasses, never raw socket errors.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import deque
from typing import Callable, Optional, Sequence

from repro.errors import (
    RemoteProtocolError,
    SourceTimeoutError,
    SourceUnavailableError,
)
from repro.remote import protocol

#: Idle keep-alive sockets a :class:`TCPTransport` keeps for reuse.
POOL_SIZE = 4
#: Seconds a :class:`TCPTransport` waits to open a connection.
CONNECT_TIMEOUT = 2.0


class Transport:
    """One request/response exchange with a remote source."""

    def request(self, payload: dict, timeout: Optional[float] = None) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources; the transport stays usable."""


class TCPTransport(Transport):
    """Pooled keep-alive TCP connections speaking the framed protocol.

    Up to :data:`POOL_SIZE` idle sockets are kept and reused across
    requests, so a stream of sub-query calls pays connection setup once.
    Any socket that errors (timeout, reset, EOF) is discarded rather
    than returned to the pool.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._idle: deque[socket.socket] = deque()
        self._lock = threading.Lock()
        #: Total sockets ever opened — lets tests assert keep-alive reuse.
        self.connections_opened = 0

    def request(self, payload: dict, timeout: Optional[float] = None) -> dict:
        sock = self._checkout()
        try:
            sock.settimeout(timeout)
            protocol.send_frame(sock, payload)
            response = protocol.recv_frame(sock)
        except socket.timeout as exc:
            self._discard(sock)
            raise SourceTimeoutError(
                f"{self.host}:{self.port} did not answer within "
                f"{timeout}s") from exc
        except RemoteProtocolError:
            self._discard(sock)
            raise
        except OSError as exc:
            self._discard(sock)
            raise SourceUnavailableError(
                f"connection to {self.host}:{self.port} failed: {exc}") from exc
        if response is None:
            self._discard(sock)
            raise SourceUnavailableError(
                f"{self.host}:{self.port} closed the connection")
        self._checkin(sock)
        return response

    def close(self) -> None:
        with self._lock:
            idle, self._idle = list(self._idle), deque()
        for sock in idle:
            try:
                sock.close()
            except OSError:
                pass

    # -- connection pool --------------------------------------------------

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._idle:
                return self._idle.popleft()
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=CONNECT_TIMEOUT)
        except OSError as exc:
            raise SourceUnavailableError(
                f"cannot connect to {self.host}:{self.port}: {exc}") from exc
        with self._lock:
            self.connections_opened += 1
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if len(self._idle) < POOL_SIZE:
                self._idle.append(sock)
                return
        try:
            sock.close()
        except OSError:
            pass

    def _discard(self, sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass


class LocalTransport(Transport):
    """In-process loopback to a server-side handler.

    Every payload is serialised and re-parsed in both directions, so the
    loopback exercises exactly the fidelity limits of the TCP path.
    """

    def __init__(self, handler: Callable[[dict], dict]):
        self._handler = handler

    def request(self, payload: dict, timeout: Optional[float] = None) -> dict:
        response = self._handler(protocol.roundtrip(payload))
        return protocol.roundtrip(response)


class FaultyTransport(Transport):
    """Deterministic fault-injection proxy around another transport.

    Faults are decided per *call index*, not per wall-clock instant: the
    i-th request through the proxy sees the fault drawn from a RNG
    seeded with ``(seed, i)``, so a chaos run is reproducible even when
    worker threads interleave differently between runs.

    Parameters
    ----------
    inner:
        The transport real requests are forwarded to.
    seed:
        Base seed of the per-call fault decisions.
    fault_rate:
        Probability in ``[0, 1]`` that a call outside an outage window
        suffers an injected fault.
    latency_range:
        ``(lo, hi)`` seconds of deterministic extra latency added to
        every forwarded call.
    outages:
        Scripted full-outage windows as half-open call-index ranges
        ``(start, end)`` — every call whose index falls in a window
        fails with :class:`SourceUnavailableError` without reaching the
        inner transport.
    """

    #: Fault kinds drawn (uniformly) for a faulty call.
    FAULTS = ("timeout", "reset", "wrong_version")

    def __init__(self, inner: Transport, seed: int = 0, fault_rate: float = 0.0,
                 latency_range: tuple[float, float] = (0.0, 0.0),
                 outages: Sequence[tuple[int, int]] = ()):
        self.inner = inner
        self.seed = seed
        self.fault_rate = fault_rate
        self.latency_range = latency_range
        self.outages = tuple(outages)
        self._lock = threading.Lock()
        self._calls = 0
        self.injected: dict[str, int] = {
            "timeout": 0, "reset": 0, "wrong_version": 0, "outage": 0}

    def request(self, payload: dict, timeout: Optional[float] = None) -> dict:
        with self._lock:
            index = self._calls
            self._calls += 1
        # Deterministic per-call stream: mixing the base seed with the
        # call index keeps fault decisions stable across runs no matter
        # how worker threads interleave their requests.
        rng = random.Random(self.seed * 1_000_003 + index)
        lo, hi = self.latency_range
        if hi > 0:
            time.sleep(rng.uniform(lo, hi))
        if any(start <= index < end for start, end in self.outages):
            with self._lock:
                self.injected["outage"] += 1
            raise SourceUnavailableError(
                f"injected outage (call #{index})")
        fault = None
        if self.fault_rate > 0 and rng.random() < self.fault_rate:
            fault = self.FAULTS[rng.randrange(len(self.FAULTS))]
        if fault == "timeout":
            with self._lock:
                self.injected["timeout"] += 1
            raise SourceTimeoutError(f"injected timeout (call #{index})")
        if fault == "reset":
            with self._lock:
                self.injected["reset"] += 1
            raise SourceUnavailableError(
                f"injected connection reset (call #{index})")
        response = self.inner.request(payload, timeout=timeout)
        if fault == "wrong_version":
            with self._lock:
                self.injected["wrong_version"] += 1
            tampered = dict(response)
            tampered["version"] = -1
            return tampered
        return response

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def close(self) -> None:
        self.inner.close()
