"""Remote source federation: wire protocol, reference servers, clients.

The paper's mediator federates *network* services (Solr, SQL servers,
SPARQL endpoints); this package makes the repro's in-process stores
remote without changing the mediator protocol:

* :mod:`repro.remote.protocol` — a compact length-prefixed JSON wire
  protocol (framing, value and sub-query codecs, column-major answers
  whose wide text and int columns travel as bytes after the JSON);
* :mod:`repro.remote.server` — reference servers exposing any registered
  :class:`~repro.core.sources.DataSource` over that protocol (TCP with
  keep-alive, plus a transport-agnostic in-process handler);
* :mod:`repro.remote.transport` — client transports: pooled TCP
  connections, an in-process loopback, and a *deterministic*
  fault-injection proxy for reproducible chaos tests;
* :mod:`repro.remote.resilience` — per-source call timeouts, retries
  with exponential backoff + jitter, hedged requests at a stated delay
  (off by default), and a closed/open/half-open circuit breaker;
* :mod:`repro.remote.client` — :class:`RemoteSource`, the
  :class:`~repro.core.sources.DataSource` wrapper speaking the protocol
  behind ``execute`` / ``execute_batch`` / ``estimate`` / ``version`` /
  ``pin``.
"""

from repro.remote.client import RemoteSource
from repro.remote.resilience import CircuitBreaker, RemoteOptions
from repro.remote.server import RemoteSourceHandler, SourceServer
from repro.remote.transport import (
    FaultyTransport,
    LocalTransport,
    TCPTransport,
    Transport,
)

__all__ = [
    "CircuitBreaker",
    "FaultyTransport",
    "LocalTransport",
    "RemoteOptions",
    "RemoteSource",
    "RemoteSourceHandler",
    "SourceServer",
    "TCPTransport",
    "Transport",
]
