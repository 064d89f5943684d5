"""Concurrent mediator serving: snapshot isolation + a query scheduler.

Public entry points:

* :class:`MediatorService` — bounded worker pool, FIFO-with-priority
  scheduling, admission control, per-query deadlines/cancellation;
* :class:`ServiceConfig` — the scheduler's knobs;
* :class:`QueryTicket` — the future-like handle ``submit`` returns;
* :class:`PinnedCatalog` / :func:`pin_instance` — the snapshot vector a
  query observes (also reachable as ``MixedInstance.pin()``).
"""

from repro.errors import (
    AdmissionError,
    QueryCancelledError,
    QueryTimeoutError,
    ServiceError,
)
from repro.service.mediator import (
    CANCELLED,
    DONE,
    FAILED,
    MediatorService,
    PENDING,
    QueryTicket,
    RUNNING,
    ServiceConfig,
    TIMED_OUT,
)
from repro.service.snapshots import PinnedCatalog, pin_instance
from repro.service.standing import (
    StandingDelta,
    StandingQueryRegistry,
    StandingSubscription,
)

__all__ = [
    "AdmissionError",
    "CANCELLED",
    "DONE",
    "FAILED",
    "MediatorService",
    "PENDING",
    "PinnedCatalog",
    "QueryCancelledError",
    "QueryTicket",
    "QueryTimeoutError",
    "RUNNING",
    "ServiceConfig",
    "ServiceError",
    "StandingDelta",
    "StandingQueryRegistry",
    "StandingSubscription",
    "TIMED_OUT",
    "pin_instance",
]
