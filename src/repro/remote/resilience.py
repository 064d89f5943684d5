"""Resilience policies for remote source calls.

:class:`RemoteOptions` bundles the per-source settings (timeout, retry
budget, backoff, a fixed hedge delay, breaker thresholds);
:class:`CircuitBreaker` implements the classic closed / open / half-open
state machine with an injectable clock so tests can script time.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import CircuitOpenError

logger = logging.getLogger(__name__)

#: The largest jitter fraction added to a retry's backoff.
BACKOFF_JITTER = 0.5


@dataclass(frozen=True)
class RemoteOptions:
    """Resilience settings of one :class:`~repro.remote.client.RemoteSource`.

    Attributes
    ----------
    timeout:
        Per-call network timeout in seconds.
    retries:
        Extra attempts after the first for *idempotent reads* that fail
        with a transport-level :class:`~repro.errors.RemoteError`.
    backoff_base / backoff_max:
        Exponential backoff between retries: attempt *n* sleeps
        ``min(backoff_base * 2**n, backoff_max)``, stretched by up to
        :data:`BACKOFF_JITTER` (a fraction drawn from the seeded RNG).
    hedge_delay:
        Seconds to wait before launching a hedged duplicate of a slow
        call; ``0`` (the default) never hedges.
    breaker_failures:
        Consecutive failures that trip the breaker open.
    breaker_reset:
        Seconds the breaker stays open before admitting a half-open probe.
    """

    timeout: float = 1.0
    retries: int = 2
    backoff_base: float = 0.05
    backoff_max: float = 1.0
    hedge_delay: float = 0.0
    breaker_failures: int = 5
    breaker_reset: float = 1.0

    def backoff(self, attempt: int, jitter: float = 0.0) -> float:
        """Sleep before retry ``attempt`` (0-based), jitter in [0, 1)."""
        base = min(self.backoff_base * (2 ** attempt), self.backoff_max)
        return base * (1.0 + BACKOFF_JITTER * jitter)


class CircuitBreaker:
    """Per-source circuit breaker: closed / open / half-open.

    ``breaker_failures`` consecutive failures open the circuit; while
    open, :meth:`before_call` fails fast with
    :class:`~repro.errors.CircuitOpenError` without touching the
    network.  After ``breaker_reset`` seconds the breaker admits one
    probe call at a time (half-open); a probe success closes it, a probe
    failure re-opens it.

    The clock is injectable so tests can drive the state machine
    deterministically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, name: str, failures: int = 5, reset_after: float = 1.0,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Optional[Callable[[str, str], None]] = None):
        self.name = name
        self.failures = max(1, failures)
        self.reset_after = reset_after
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.transitions: list[tuple[str, str]] = []

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def before_call(self) -> None:
        """Gate one call; raises :class:`CircuitOpenError` when open."""
        with self._lock:
            self._maybe_half_open()
            if self._state == self.CLOSED:
                return
            if self._state == self.HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return
            remaining = self.reset_after - (self._clock() - self._opened_at)
            raise CircuitOpenError(
                f"circuit for {self.name} is {self._state}"
                + (f" (retry in {remaining:.2f}s)" if remaining > 0 else ""))

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == self.HALF_OPEN:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(self.OPEN)
                return
            self._consecutive_failures += 1
            if self._state == self.CLOSED and \
                    self._consecutive_failures >= self.failures:
                self._opened_at = self._clock()
                self._transition(self.OPEN)

    # -- internal (lock held) ---------------------------------------------

    def _maybe_half_open(self) -> None:
        if self._state == self.OPEN and \
                self._clock() - self._opened_at >= self.reset_after:
            self._transition(self.HALF_OPEN)

    def _transition(self, new_state: str) -> None:
        old_state, self._state = self._state, new_state
        if new_state == self.HALF_OPEN:
            self._probe_in_flight = False
        elif new_state == self.CLOSED:
            self._consecutive_failures = 0
        self.transitions.append((old_state, new_state))
        logger.warning("circuit breaker %s: %s -> %s",
                       self.name, old_state, new_state)
        if self._on_transition is not None:
            self._on_transition(old_state, new_state)
