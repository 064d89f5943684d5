"""Multi-query optimization: plan the queue, not the query.

The mediator's repeated fact-checking workload (the paper's scenario:
the same CMQs re-run as tweets stream in) makes concurrent queries
largely *overlapping* — most of the sub-queries an admitted ticket is
about to ship are also being shipped, right now, by another in-flight
ticket.  Following the GLADE MQO approach (PAPERS.md: detect shared
sub-computations across an admitted batch, evaluate once, fan out),
this module adds two cooperating mechanisms:

**Group admission** (:class:`QueryGroup`, formed by the service's
worker loop): a worker that dequeues a ticket scoops compatible pending
tickets into a group and pins ONE snapshot vector for all of them.
Members still run in parallel on separate workers, but because they
share the pinned versions, their canonical cache keys coincide exactly
— the precondition for sharing work without ever mixing snapshot
versions.

**Single-flight** (:class:`MQOCoordinator`): every cache *miss* of
every executor flows through :meth:`MQOCoordinator.evaluate` under its
full cache key ``(source URI, identity token, pinned version, canonical
query, canonical binding)``.  A caller *leads* the keys nobody is
evaluating — one source call for all of them, on its own thread — and
*rides* the keys another in-flight query is already evaluating: it
waits for that evaluation and receives its rows without a source call
(``shared_subqueries``).

A leader runs straight-line (no nested pool submits) before it waits on
anyone, so riders' waits always bottom out at a thread that is making
progress; the wait is additionally bounded (:data:`RIDER_TIMEOUT`), and
a rider whose carrier failed or stalled evaluates its own probes.
Results cross between differently-renamed queries in canonical form —
the same renaming machinery the result cache already trusts
(:mod:`repro.cache.keys`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.snapshots import PinnedCatalog

#: A caller's evaluator: positions into its key list -> one (canonical)
#: answer per position, from ONE source call.
Runner = Callable[[list[int]], list]

#: Seconds a rider waits on a carrier before it stops waiting and
#: evaluates its own probes (the carrier's source call hung).
RIDER_TIMEOUT = 30.0


@dataclass
class QueryGroup:
    """A batch of tickets admitted together under ONE pinned snapshot.

    Sharing the snapshot vector is what makes cross-ticket sharing
    sound: all members key their sub-queries under identical source
    versions, so single-flight fan-out can never hand a ticket rows
    pinned at a different version than its own.
    """

    pinned: "PinnedCatalog"
    size: int


class _Flight:
    """One leader's in-flight source call.

    The leader fills ``results`` (by full cache key) unless its call
    raised, then sets ``done`` — unconditionally, so a rider can never
    wait on a flight that silently died.
    """

    __slots__ = ("done", "results")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.results: Optional[dict[tuple, object]] = None


class MQOCoordinator:
    """The single-flight map of one :class:`MediatorService`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Full cache key -> the flight evaluating it right now.
        self._in_flight: dict[tuple, _Flight] = {}
        self._totals = {
            "shared_subqueries": 0,
            "source_calls_saved": 0,
            "groups": 0,
            "grouped_tickets": 0,
        }

    def group_formed(self, size: int) -> None:
        with self._lock:
            self._totals["groups"] += 1
            self._totals["grouped_tickets"] += size

    def stats(self) -> dict[str, int]:
        """Cumulative sharing counters (``MediatorService.stats()["mqo"]``)."""
        with self._lock:
            return dict(self._totals)

    def evaluate(self, keys: list[tuple], runner: Runner) -> tuple[list, int]:
        """Answer the probes ``keys``, each evaluated once across callers;
        ``(answer_per_key, shared)``.

        ``runner`` is invoked (at most twice: to lead, to recover) with
        the positions in ``keys`` this caller must evaluate itself — the
        keys no in-flight query is evaluating, a key duplicated within
        the call only once — and must answer them in order.  Its answers
        are handed as-is to every concurrent caller of the same key.

        ``shared`` counts the probes answered by another caller's
        evaluation.  A runner that raises fails this caller only.
        """
        first: dict[tuple, int] = {}
        riding: dict[tuple, _Flight] = {}
        flight = _Flight()
        with self._lock:
            for position, key in enumerate(keys):
                if key in first:
                    continue
                first[key] = position
                carrier = self._in_flight.get(key)
                if carrier is not None:
                    riding[key] = carrier
            lead = [key for key in first if key not in riding]
            for key in lead:
                self._in_flight[key] = flight
        answers: dict[tuple, object] = {}
        if lead:
            try:
                answers.update(zip(lead, runner([first[key] for key in lead])))
                flight.results = dict(answers)
            finally:
                with self._lock:
                    for key in lead:
                        del self._in_flight[key]
                flight.done.set()
        for carrier in dict.fromkeys(riding.values()):
            # A carrier that outlives the timeout is treated like one
            # that failed: its keys are recovered below, on this thread.
            carrier.done.wait(RIDER_TIMEOUT)
        recover = [key for key, carrier in riding.items()
                   if not carrier.done.is_set() or carrier.results is None]
        if recover:
            answers.update(zip(recover, runner([first[key] for key in recover])))
            for key in recover:
                del riding[key]
        for key, carrier in riding.items():
            answers[key] = carrier.results[key]
        shared = sum(1 for key in keys if key in riding)
        with self._lock:
            self._totals["shared_subqueries"] += shared
            if not lead and not recover:
                self._totals["source_calls_saved"] += 1
        return [answers[key] for key in keys], shared
