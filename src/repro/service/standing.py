"""Standing conjunctive mixed queries: push-based result deltas.

A *standing* CMQ stays registered after its first evaluation; as
ingestion mutates the instance's stores, the registry re-evaluates it
and pushes the **result delta** (rows that appeared, rows that vanished)
to the subscriber's callback — the paper's fact-checking scenario, where
the same watch queries run forever over a live tweet stream.

The refresh loop is *journal-driven*, not polling: every journaled
store wakes the registry through its
:class:`~repro.core.deltas.DeltaJournal` listeners, a short debounce
coalesces write bursts (one ingest batch of N documents is one version
bump and one refresh), and a subscription only re-executes when the
source-version vector it last observed actually moved.  Re-execution
goes through the service's ordinary ``submit`` path, so a standing
refresh enjoys snapshot pinning, admission control — and, crucially,
the result cache: the write that triggered the refresh has usually been
delta-repaired (:mod:`repro.cache.repair`) by the time the refresh
probes it, so refreshing is mostly cache hits, not source calls.

Deltas are **multiset** diffs of the result rows.  Callbacks run inline
on the refresh thread and are isolated: a raising callback is counted
and logged, never allowed to wedge the refresh loop.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.engine.batch import freeze

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cmq import ConjunctiveMixedQuery
    from repro.core.results import Row
    from repro.service.mediator import MediatorService

logger = logging.getLogger("repro.service.standing")


@dataclass
class StandingDelta:
    """One refresh's observable change, pushed to the subscriber.

    ``added`` / ``removed`` are multiset differences against the
    previous refresh (a row appearing twice more is listed twice);
    ``versions`` is the source-version vector of the refresh that
    produced them and ``sequence`` counts deliveries per subscription
    (starting at 1), so a subscriber can detect missed callbacks.
    """

    added: list["Row"] = field(default_factory=list)
    removed: list["Row"] = field(default_factory=list)
    versions: dict[str, Optional[int]] = field(default_factory=dict)
    sequence: int = 0

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


def _row_key(row: "Row") -> tuple:
    """Hashable multiset fingerprint of one result row."""
    return tuple(sorted((name, freeze(value)) for name, value in row.items()))


class StandingSubscription:
    """One registered standing CMQ (handle returned by ``register``)."""

    def __init__(self, registry: "StandingQueryRegistry",
                 query: "ConjunctiveMixedQuery",
                 callback: Callable[[StandingDelta], None]):
        self.registry = registry
        self.query = query
        self.callback = callback
        self.active = True
        #: Source-version vector of the last completed refresh.
        self.versions: dict[str, Optional[int]] = {}
        #: Multiset of the current result (fingerprint -> multiplicity)
        #: plus one representative row per fingerprint for delta output.
        self._counts: Counter = Counter()
        self._rows: dict[tuple, "Row"] = {}
        self.refreshes = 0
        self.deliveries = 0
        self.callback_errors = 0
        self.refresh_errors = 0
        self._lock = threading.Lock()

    @property
    def rows(self) -> list["Row"]:
        """The current standing result (multiset, arbitrary order)."""
        with self._lock:
            return [dict(self._rows[key]) for key, count in self._counts.items()
                    for _ in range(count)]

    def cancel(self) -> None:
        """Stop refreshing this subscription (idempotent)."""
        self.active = False
        self.registry._drop(self)

    # -- registry side -------------------------------------------------------
    def _rebase(self, rows: list["Row"],
                versions: dict[str, Optional[int]]) -> Optional[StandingDelta]:
        """Swap in a fresh result; the delta against the old one, if any."""
        counts = Counter()
        fresh: dict[tuple, "Row"] = {}
        for row in rows:
            key = _row_key(row)
            counts[key] += 1
            fresh.setdefault(key, row)
        with self._lock:
            added = [dict(fresh[key])
                     for key, count in counts.items()
                     for _ in range(count - self._counts.get(key, 0))]
            removed = [dict(self._rows[key])
                       for key, count in self._counts.items()
                       for _ in range(count - counts.get(key, 0))]
            self._counts = counts
            self._rows = fresh
            self.versions = dict(versions)
            self.refreshes += 1
            if not added and not removed:
                return None
            self.deliveries += 1
            return StandingDelta(added=added, removed=removed,
                                 versions=dict(versions),
                                 sequence=self.deliveries)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"StandingSubscription(query={self.query.name!r}, "
                f"active={self.active}, refreshes={self.refreshes})")


class StandingQueryRegistry:
    """Journal-driven refresh loop over the service's subscriptions."""

    #: Seconds the refresher sleeps after a wake-up so one ingest burst
    #: (many notify calls) collapses into one refresh round.
    DEBOUNCE = 0.01
    #: Fallback poll interval: sources without a journal cannot wake the
    #: loop, so it re-checks the version vector at least this often.
    POLL = 0.5

    def __init__(self, service: "MediatorService"):
        self.service = service
        self._subscriptions: list[StandingSubscription] = []
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._closed = False
        self._listening: list = []  # (journal, listener) pairs to detach
        self._attach_listeners()
        self._thread = threading.Thread(target=self._loop,
                                        name="mediator-standing", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    def register(self, query: "ConjunctiveMixedQuery",
                 callback: Callable[[StandingDelta], None]) -> StandingSubscription:
        """Evaluate ``query`` once as the baseline and keep it standing.

        The baseline evaluation is synchronous; the returned
        subscription's :attr:`~StandingSubscription.rows` holds the
        current result.  The callback only ever receives *changes* —
        registration itself delivers nothing.
        """
        subscription = StandingSubscription(self, query, callback)
        versions = self._version_vector()
        result = self.service.execute(query)
        subscription._rebase(result.rows, versions)
        subscription.deliveries = 0  # the baseline is not a delivery
        with self._lock:
            self._subscriptions.append(subscription)
        return subscription

    def stats(self) -> dict[str, object]:
        with self._lock:
            subscriptions = list(self._subscriptions)
        return {
            "subscriptions": len(subscriptions),
            "refreshes": sum(s.refreshes for s in subscriptions),
            "deliveries": sum(s.deliveries for s in subscriptions),
            "callback_errors": sum(s.callback_errors for s in subscriptions),
            "refresh_errors": sum(s.refresh_errors for s in subscriptions),
        }

    def close(self) -> None:
        """Stop the refresh loop and detach every journal listener."""
        self._closed = True
        self._wake.set()
        self._thread.join(timeout=5.0)
        for journal, listener in self._listening:
            journal.unsubscribe(listener)
        self._listening.clear()

    # ------------------------------------------------------------------
    def _drop(self, subscription: StandingSubscription) -> None:
        with self._lock:
            if subscription in self._subscriptions:
                self._subscriptions.remove(subscription)

    def _attach_listeners(self) -> None:
        """One journal listener per journaled store wakes the loop."""

        def listener(_entry) -> None:
            self._wake.set()

        instance = self.service.instance
        journals = []
        glue_journal = getattr(instance.graph, "journal", None)
        if glue_journal is not None:
            journals.append(glue_journal)
        for uri in instance.source_uris():
            journal_of = getattr(instance.source(uri), "journal", None)
            journal = journal_of() if callable(journal_of) else None
            if journal is not None:
                journals.append(journal)
        for journal in journals:
            journal.subscribe(listener)
            self._listening.append((journal, listener))

    def _version_vector(self) -> dict[str, Optional[int]]:
        instance = self.service.instance
        vector: dict[str, Optional[int]] = {
            uri: instance.source(uri).version()
            for uri in instance.source_uris()}
        vector["#glue"] = instance.graph.version
        return vector

    def _loop(self) -> None:
        while not self._closed:
            woke = self._wake.wait(timeout=self.POLL)
            if self._closed:
                return
            if woke:
                self._wake.clear()
                time.sleep(self.DEBOUNCE)  # coalesce the burst
            vector = self._version_vector()
            with self._lock:
                due = [s for s in self._subscriptions
                       if s.active and s.versions != vector]
            for subscription in due:
                if self._closed:
                    return
                self._refresh(subscription)

    def _refresh(self, subscription: StandingSubscription) -> None:
        versions = self._version_vector()
        try:
            result = self.service.execute(subscription.query)
        except Exception:  # noqa: BLE001 - the loop must survive one query
            subscription.refresh_errors += 1
            logger.exception("standing refresh of %s failed",
                             subscription.query.name)
            return
        delta = subscription._rebase(result.rows, versions)
        if delta is None:
            return
        self._deliver(subscription, delta)

    def _deliver(self, subscription: StandingSubscription,
                 delta: StandingDelta) -> None:
        """Run the callback inline on the refresh thread, isolated: a
        raising callback is counted and logged, and the loop goes on."""
        try:
            subscription.callback(delta)
        except Exception:  # noqa: BLE001 - callbacks never stop the loop
            subscription.callback_errors += 1
            logger.exception("standing callback of %s raised",
                             subscription.query.name)
