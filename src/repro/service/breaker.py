"""Client-side circuit breaker: closed -> open -> half-open.

A retrying client hammering a saturated replica makes the overload
worse: every rejected attempt costs the server an admission check and
the client a backoff-spin, and when many clients back off in lockstep
they re-arrive as a thundering herd.  The breaker converts "this
target keeps failing" into *fast local failure*: after
``failure_threshold`` consecutive failures the breaker **opens** and
callers fail immediately without touching the wire; after
``cooldown_s`` it goes **half-open** and admits one trial request at a
time; ``HALF_OPEN_SUCCESSES`` consecutive probe successes close it
again, any probe failure re-opens it (with a fresh cooldown).

The same class serves both ends of the stack: every cluster replica
owns one (a saturated or flapping replica stops being dialed), and
:meth:`DecodeClient.decode_with_retry` accepts one so a load
generator's retry loop stops burning attempts against a fleet that is
down — that is what bounds ``mean_attempts`` during fleet saturation.
Both ends count a reply through :meth:`CircuitBreaker.record`, so they
agree on which outcomes are failures.

The clock is injectable so tests (and deterministic drills) can drive
state transitions without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: consecutive half-open probe successes that close the breaker
HALF_OPEN_SUCCESSES = 2


@dataclass(frozen=True)
class BreakerPolicy:
    """Trip/recovery knobs of a :class:`CircuitBreaker`."""

    #: consecutive failures that trip the breaker open
    failure_threshold: int = 5
    #: how long the breaker stays open before probing
    cooldown_s: float = 0.25

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")


class CircuitBreaker:
    """One breaker (one protected target: a replica, or a whole fleet)."""

    def __init__(self, policy: Optional[BreakerPolicy] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.policy = policy or BreakerPolicy()
        self._clock = clock
        self.opens = 0
        self.fast_fails = 0           # allow() == False events
        self._opened_at = 0.0
        self.reset()

    def reset(self) -> None:
        """Close, forgetting failures and probes (counters survive)."""
        self.state = CLOSED
        self._failures = 0            # consecutive, while closed
        self._successes = 0           # consecutive, while half-open
        self._probing = False         # the half-open trial is in flight

    # -- gate ----------------------------------------------------------
    def allow(self) -> bool:
        """May a request go out right now?  (Takes the half-open probe.)"""
        if self.state == OPEN:
            if self._clock() - self._opened_at >= self.policy.cooldown_s:
                self.state = HALF_OPEN      # _trip() cleared the probe
            else:
                self.fast_fails += 1
                return False
        if self.state == HALF_OPEN:
            if self._probing:
                self.fast_fails += 1
                return False
            self._probing = True
        return True

    def would_allow(self) -> bool:
        """Non-mutating preview of :meth:`allow`.

        Used as a dispatch *filter* (the cluster router skips replicas
        whose breaker would refuse) without taking the half-open probe
        or counting a fast-fail for replicas that were never going to
        be dialed.
        """
        if self.state == OPEN:
            return self._clock() - self._opened_at >= self.policy.cooldown_s
        if self.state == HALF_OPEN:
            return not self._probing
        return True

    # -- outcome reporting ---------------------------------------------
    def record(self, outcome) -> None:
        """Count one :class:`~repro.service.client.DecodeOutcome`: ``ok``
        and ``migrated`` (the shard moved; the target answered promptly)
        are successes, transient rejections and errors failures, and
        ``too_large`` (the request's fault) does not count."""
        if outcome.ok or outcome.reason == "migrated":
            self.record_success()
        elif outcome.rejected or outcome.reason == "error":
            self.record_failure()

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self._probing = False
            self._successes += 1
            if self._successes >= HALF_OPEN_SUCCESSES:
                self.reset()
        elif self.state == CLOSED:
            self._failures = 0

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            self._trip()
        elif self.state == CLOSED:
            self._failures += 1
            if self._failures >= self.policy.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self.reset()
        self.state = OPEN
        self.opens += 1
        self._opened_at = self._clock()

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "opens": self.opens,
            "fast_fails": self.fast_fails,
            "consecutive_failures": self._failures,
        }
