"""One decode server behind the cluster router, and its health.

A :class:`Replica` bundles a backend — an in-process
:class:`~repro.service.server.DecodeService` (the default; same framed
protocol bytes as TCP) or a remote ``host:port`` — with the router's
view of it: a multiplexing :class:`~repro.service.client.DecodeClient`,
an in-flight counter for least-loaded dispatch, an optional
:class:`~repro.service.cluster.faults.FaultInjector` standing between
the service and every connection so the chaos harness can kill, hang
or degrade the replica mid-run, and its health — this module is the
only place that knows it.  Misses (heartbeats or request timeouts)
demote ``up -> suspect -> down`` (``MISSES_DOWN`` in a row confirm
down; a dead connection is down at once), a suspect needs
``RECOVERY_PINGS`` good pings in a row to be ``up`` again, and an
optional :class:`~repro.service.breaker.CircuitBreaker` counts every
reply.  The router reports each event through one ``record*`` call and
acts only on the answer: leave the hash ring, or rejoin it.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Optional

from ..breaker import BreakerPolicy, CircuitBreaker
from ..client import DecodeClient, DecodeOutcome
from ..server import DecodeService
from .faults import FaultInjector

#: replica health states
UP = "up"
SUSPECT = "suspect"
DRAINING = "draining"
DOWN = "down"

#: consecutive misses (heartbeats or request timeouts) that confirm a
#: suspect replica down
MISSES_DOWN = 2
#: flap damping: consecutive good pings a suspect needs before it is
#: promoted back to full-weight dispatch
RECOVERY_PINGS = 3


class Replica:
    """Router-side handle of one decode server."""

    def __init__(
        self,
        name: str,
        service: Optional[DecodeService] = None,
        address: Optional[tuple] = None,
        injector: Optional[FaultInjector] = None,
        breaker: Optional[BreakerPolicy] = None,
    ) -> None:
        if (service is None) == (address is None):
            raise ValueError("pass exactly one of service / address")
        self.name = name
        self.service = service
        self.address = address
        self.injector = injector if service is not None else None
        self.state = UP
        self.inflight = 0
        self.heartbeat_misses = 0
        #: consecutive successful pings since the last suspect/down —
        #: the flap-damping counter (see :meth:`on_ping_ok`)
        self.recovery_streak = 0
        self.last_heartbeat_s: Optional[float] = None
        self.served = 0
        self.failed = 0
        self.restarts = 0
        #: per-replica circuit breaker (None = never fail fast)
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(breaker) if breaker is not None else None
        )
        self._client: Optional[DecodeClient] = None

    # -- connection -----------------------------------------------------
    async def ensure_client(self) -> DecodeClient:
        """The (lazily created) client connection to this replica."""
        if self._client is None:
            if self.service is not None:
                wrap = self.injector.wrap if self.injector else None
                self._client = DecodeClient(self.service.connect(wrap))
            else:
                host, port = self.address
                self._client = await DecodeClient.connect_tcp(host, port)
        return self._client

    def drop_client(self) -> None:
        """Forget the connection (it died); the next use reconnects.

        A killed in-process replica never reconnects — its service is
        closed, so ``ensure_client`` fails and the router keeps it down.
        """
        client, self._client = self._client, None
        if client is not None:
            task = asyncio.get_running_loop().create_task(client.close())
            task.add_done_callback(lambda t: t.exception())

    def adopt_address(self, address: tuple) -> None:
        """Point this replica at a restarted process's new ``(host,
        port)`` (supervisor restarts bind a fresh ephemeral port).  The
        stale connection is dropped and the health history forgotten;
        the replica re-enters as a suspect and must earn its way back
        to ``up`` through the flap-damping streak like any other
        recovering server."""
        if self.service is not None:
            raise ValueError("adopt_address is for remote replicas only")
        self.address = address
        self.drop_client()
        self.restarts += 1
        self.reset(DRAINING if self.state == DRAINING else SUSPECT)

    # -- health: state --------------------------------------------------
    @property
    def available(self) -> bool:
        """Alive for dispatch (suspects still serve until confirmed
        down — a slow replica is better than a lost request)."""
        return self.state in (UP, SUSPECT)

    @property
    def dispatchable(self) -> bool:
        """Available, and the breaker would allow (takes no probe)."""
        return self.available and (
            self.breaker is None or self.breaker.would_allow()
        )

    def reset(self, state: str = UP) -> None:
        """Forget misses, the recovery streak and an open breaker, and
        enter ``state`` (``up`` on revive)."""
        self.state = state
        self.heartbeat_misses = 0
        self.recovery_streak = 0
        if self.breaker is not None:
            self.breaker.reset()

    def mark_up(self) -> None:
        if self.state in (UP, SUSPECT):
            self.state = UP
            self.heartbeat_misses = 0

    def mark_suspect(self) -> None:
        if self.state == UP:
            self.state = SUSPECT
        self.recovery_streak = 0

    def mark_down(self) -> None:
        if self.state != DRAINING:
            self.state = DOWN
        self.recovery_streak = 0

    def _miss(self) -> bool:
        """True when this miss confirms the replica down."""
        self.heartbeat_misses += 1
        if self.heartbeat_misses >= MISSES_DOWN:
            self.mark_down()
            return True
        self.mark_suspect()
        return False

    def on_ping_ok(self) -> None:
        """Record a heartbeat success with flap damping.

        A replica in ``suspect`` needs ``RECOVERY_PINGS`` *consecutive*
        successful pings before being promoted back to ``up`` — one
        lucky ping from a flapping server must not ping-pong full-weight
        dispatch back onto it.  Any miss resets the streak.
        """
        self.heartbeat_misses = 0
        if self.state == SUSPECT:
            self.recovery_streak += 1
            if self.recovery_streak >= RECOVERY_PINGS:
                self.mark_up()

    # -- health: events -------------------------------------------------
    def acquire(self) -> bool:
        """Claim dispatch (takes the breaker's half-open probe)."""
        return self.breaker is None or self.breaker.allow()

    def record(self, outcome: DecodeOutcome) -> bool:
        """The replica answered; a reply never takes it down (False)."""
        if outcome.ok:
            self.served += 1
        if self.breaker is not None:
            self.breaker.record(outcome)
        return False

    def record_timeout(self) -> bool:
        """A request timed out: a miss.  True when it went down."""
        self._fail()
        return self._miss()

    def record_dead(self) -> bool:
        """The connection died under a request: down now (True)."""
        self._fail()
        self.drop_client()
        self.mark_down()
        return True

    def _fail(self) -> None:
        self.failed += 1
        if self.breaker is not None:
            self.breaker.record_failure()

    def record_ping(self, ok: bool) -> Optional[str]:
        """One heartbeat result -> the ring transition: ``DOWN`` (leave
        the ring), ``UP`` (belongs in it) or None (no change)."""
        if not ok:
            if self._miss():
                self.drop_client()
                return DOWN
            return None
        self.on_ping_ok()
        return UP if self.state == UP else None

    async def heartbeat(self, timeout_s: float) -> float:
        """Ping the replica; returns latency.  Raises on miss."""
        client = await self.ensure_client()
        latency = await client.ping(timeout_s)
        self.last_heartbeat_s = latency
        return latency

    # -- lifecycle ------------------------------------------------------
    async def drain_and_stop(self) -> None:
        """Graceful scale-down: flush in-flight work, then stop."""
        self.state = DRAINING
        if self._client is not None:
            await self._client.close()
            self._client = None
        if self.service is not None:
            await self.service.close(drain=True)
        self.state = DOWN

    async def kill(self) -> None:
        """Chaos hard-kill: the process dies mid-flight, no drain."""
        self.state = DOWN
        if self.injector is not None:
            self.injector.kill()
        if self._client is not None:
            await self._client.close()
            self._client = None
        if self.service is not None:
            await self.service.close(drain=False)

    async def close(self) -> None:
        """Cluster shutdown: graceful close of a still-live backend."""
        if self._client is not None:
            with contextlib.suppress(ConnectionError, OSError):
                await self._client.close()
            self._client = None
        if self.service is not None and self.state != DOWN:
            await self.service.close(drain=True)

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "inflight": self.inflight,
            "served": self.served,
            "failed": self.failed,
            "heartbeat_misses": self.heartbeat_misses,
            "recovery_streak": self.recovery_streak,
            "restarts": self.restarts,
            "breaker": (
                self.breaker.snapshot()
                if self.breaker is not None else None
            ),
        }
