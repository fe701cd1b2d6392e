"""Async client of the decode service (TCP or in-process).

A :class:`DecodeClient` multiplexes any number of concurrent
:meth:`~DecodeClient.decode` calls over one connection: requests carry
monotonically increasing ids, a background reader task resolves the
matching future when a reply lands, so out-of-order completions (the
normal case under micro-batching) are handled transparently.  A reply
whose id has already been resolved (a duplicated frame, or a late
reply racing a timed-out caller) is counted and dropped — request-id
idempotence is what lets the cluster tier retry across replicas
without ever delivering two corrections for one request.

:class:`RetryPolicy` is the client-side answer to the server's
``retry_after_us`` hint: capped exponential backoff with upward jitter
and a max-attempts budget, used by :meth:`DecodeClient.decode_with_retry`,
the load generator and the cluster router.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .protocol import (
    ShardKey,
    StreamTransport,
    decode_request,
    handoff_extract_request,
    handoff_request,
    stats_request,
    unpack_bitmap,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter for transient rejections.

    Attempt ``k`` (0-based) backs off ``base_us * multiplier**k`` capped
    at ``cap_us``; when the server supplied a ``retry_after_us`` hint
    (its Lindley drain estimate of the backlog) the larger of the two
    wins — the server knows how long the queue actually needs.  Jitter
    is *upward only* (multiply by ``1 + U[0, jitter)``) so the wait
    never undercuts the server's hint, and an honest retry storm
    decorrelates instead of re-synchronizing.
    """

    max_attempts: int = 5
    base_us: float = 500.0
    multiplier: float = 2.0
    cap_us: float = 100_000.0
    jitter: float = 0.2
    #: total backoff a single request may accumulate across all its
    #: retries — the retry-storm guard: even when every attempt is
    #: handed a huge server ``retry_after_us`` hint, one request stops
    #: burning attempts once its budget is spent
    budget_us: float = 2_000_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_us < 0 or self.cap_us < 0:
            raise ValueError("backoff times must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.budget_us < 0:
            raise ValueError("budget_us must be >= 0")

    def backoff_us(self, attempt: int, retry_after_us: float = 0.0,
                   rng: Optional[np.random.Generator] = None) -> float:
        """Wait before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        backoff = min(self.base_us * self.multiplier ** attempt, self.cap_us)
        wait = max(backoff, float(retry_after_us))
        if self.jitter > 0.0:
            u = rng.random() if rng is not None else np.random.default_rng(
            ).random()
            wait *= 1.0 + self.jitter * u
        return wait


@dataclass
class DecodeOutcome:
    """Client-side view of one decode request's fate."""

    ok: bool
    corrections: Optional[np.ndarray] = None
    converged: Optional[np.ndarray] = None
    cycles: Optional[np.ndarray] = None
    #: "" on success, else "backpressure" | "quota" | "deadline" |
    #: "draining" | "migrated" (transient, retryable) | "too_large"
    #: (permanent) | "breaker_open" (failed fast client-side, the wire
    #: was never touched) | "error"
    reason: str = ""
    error: str = ""
    retry_after_us: float = 0.0
    queue_depth: int = 0
    #: client-measured round trip (send -> reply parsed)
    latency_us: float = 0.0
    #: server-reported timings
    queued_us: float = 0.0
    decode_us: float = 0.0
    batch_shots: int = 0
    #: decoder kind that actually produced the corrections ("" when the
    #: server predates tiers); differs from the requested shard's kind
    #: while the shard is browned out
    tier: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def rejected(self) -> bool:
        """Transiently shed — retrying (after ``retry_after_us``) can
        succeed.  ``too_large`` rejections are permanent and excluded.
        ``migrated`` means the shard's ownership moved mid-queue: the
        retry hint is 0 because the new owner is ready immediately."""
        return not self.ok and self.reason in (
            "backpressure", "quota", "deadline", "draining", "migrated"
        )


class ServiceClosedError(ConnectionError):
    """The connection dropped while requests were in flight."""


class DecodeClient:
    """One connection to a :class:`~repro.service.server.DecodeService`."""

    def __init__(self, transport) -> None:
        self._transport = transport
        self._next_id = 0
        self._pending: Dict[int, asyncio.Future] = {}
        #: reply frames whose id had already been resolved (duplicated
        #: frames, or late replies racing a timed-out caller) — dropped,
        #: never delivered twice
        self.duplicate_replies = 0
        self._reader = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    # -- constructors --------------------------------------------------
    @classmethod
    async def connect_tcp(cls, host: str, port: int) -> "DecodeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(StreamTransport(reader, writer))

    @classmethod
    def connect_inprocess(cls, service) -> "DecodeClient":
        """Connect through the in-process transport (same wire format)."""
        return cls(service.connect())

    # -- reply demultiplexing ------------------------------------------
    async def _read_loop(self) -> None:
        try:
            while True:
                message = await self._transport.recv()
                if message is None:
                    break
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
                elif message.get("id") is not None:
                    self.duplicate_replies += 1
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_pending(ServiceClosedError(str(exc)))
            return
        self._fail_pending(ServiceClosedError("connection closed"))

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _roundtrip(self, message: dict) -> dict:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[message["id"]] = future
        try:
            await self._transport.send(message)
        except BaseException:
            # the send never reached the wire: drop the registration so
            # _fail_pending can't later set a never-retrieved exception
            self._pending.pop(message["id"], None)
            raise
        return await future

    def _fresh_id(self) -> int:
        self._next_id += 1
        return self._next_id

    # -- API -----------------------------------------------------------
    async def decode(self, shard: ShardKey, syndromes: np.ndarray,
                     deadline_us: Optional[float] = None,
                     tenant: Optional[str] = None,
                     priority: Optional[int] = None) -> DecodeOutcome:
        """Decode a ``(shots, n_syndromes)`` bitmap on the server."""
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        if syndromes.ndim == 1:
            syndromes = syndromes[None, :]
        message = decode_request(
            self._fresh_id(), shard, syndromes, deadline_us,
            tenant=tenant, priority=priority,
        )
        started = time.monotonic()
        reply = await self._roundtrip(message)
        latency_us = (time.monotonic() - started) * 1e6
        kind = reply.get("type")
        if kind == "result":
            return DecodeOutcome(
                ok=True,
                corrections=unpack_bitmap(reply["corrections"]),
                converged=unpack_bitmap(reply["converged"]).astype(bool),
                cycles=(
                    np.asarray(reply["cycles"], dtype=np.int64)
                    if "cycles" in reply else None
                ),
                latency_us=latency_us,
                queued_us=reply.get("queued_us", 0.0),
                decode_us=reply.get("decode_us", 0.0),
                batch_shots=reply.get("batch_shots", 0),
                tier=reply.get("tier", ""),
            )
        if kind == "reject":
            return DecodeOutcome(
                ok=False,
                reason=reply.get("reason", "backpressure"),
                retry_after_us=reply.get("retry_after_us", 0.0),
                queue_depth=reply.get("queue_depth", 0),
                latency_us=latency_us,
            )
        if kind == "error":
            return DecodeOutcome(
                ok=False, reason="error",
                error=reply.get("message", "unknown error"),
                latency_us=latency_us,
            )
        return DecodeOutcome(
            ok=False, reason="error",
            error=f"unexpected reply type {kind!r}", latency_us=latency_us,
        )

    async def decode_with_retry(
        self,
        shard: ShardKey,
        syndromes: np.ndarray,
        deadline_us: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        tenant: Optional[str] = None,
        priority: Optional[int] = None,
        breaker=None,
    ) -> DecodeOutcome:
        """:meth:`decode`, retrying transient rejections per ``policy``.

        Backpressure / quota / deadline / draining rejections are
        retried after the policy's backoff (which honors the server's
        ``retry_after_us``); permanent outcomes (``too_large``, errors)
        and successes return immediately.  The returned outcome carries
        ``metadata["attempts"]`` — how many sends the request took.

        Three guards stop a retry storm: the per-request backoff
        ``budget_us`` (no more retries once a request has slept its
        budget away), the request's own ``deadline_us`` (the remaining
        deadline shrinks across attempts and is never slept past), and
        an optional :class:`~repro.service.breaker.CircuitBreaker` —
        when it is open the request fails fast with reason
        ``"breaker_open"`` and ``metadata["attempts"] == 0`` (nothing
        was sent), which is what bounds the fleet-wide mean attempt
        count during saturation.
        """
        policy = policy or RetryPolicy()
        deadline_at = (
            time.monotonic() + deadline_us / 1e6
            if deadline_us is not None else None
        )

        def remaining_us() -> Optional[float]:
            if deadline_at is None:
                return None
            return (deadline_at - time.monotonic()) * 1e6

        if breaker is not None and not breaker.allow():
            return DecodeOutcome(
                ok=False, reason="breaker_open",
                metadata={"attempts": 0},
            )
        outcome = await self.decode(
            shard, syndromes, remaining_us(), tenant, priority
        )
        if breaker is not None:
            breaker.record(outcome)
        attempt = 0
        spent_us = 0.0
        while outcome.rejected and attempt + 1 < policy.max_attempts:
            wait_us = policy.backoff_us(
                attempt, outcome.retry_after_us, rng
            )
            if spent_us + wait_us > policy.budget_us:
                break                   # total retry budget exhausted
            left = remaining_us()
            if left is not None and wait_us >= left:
                break                   # the deadline would pass waiting
            if wait_us > 0:
                await asyncio.sleep(wait_us / 1e6)
                spent_us += wait_us
            if breaker is not None and not breaker.allow():
                break                   # opened while we backed off
            outcome = await self.decode(
                shard, syndromes, remaining_us(), tenant, priority
            )
            if breaker is not None:
                breaker.record(outcome)
            attempt += 1
        outcome.metadata["attempts"] = attempt + 1
        return outcome

    async def ping(self, timeout_s: Optional[float] = None) -> float:
        """Round-trip a ping; returns the latency in seconds.

        Raises :class:`asyncio.TimeoutError` when the server does not
        answer within ``timeout_s`` (the heartbeat failure signal) and
        :class:`ServiceClosedError` when the connection is gone.
        """
        message = {"type": "ping", "id": self._fresh_id()}
        started = time.monotonic()
        try:
            reply = await asyncio.wait_for(
                self._roundtrip(message), timeout_s
            )
        except asyncio.TimeoutError:
            # the reply may still arrive later; drop the registration so
            # it is counted as a duplicate instead of resolving a future
            # nobody awaits
            self._pending.pop(message["id"], None)
            raise
        if reply.get("type") != "pong":
            raise ServiceClosedError(
                f"unexpected ping reply type {reply.get('type')!r}"
            )
        return time.monotonic() - started

    async def handoff_extract(self, shard: ShardKey) -> list:
        """Pull the server's queued-but-undecoded work for ``shard``.

        The source half of a live migration; returns the wire entries
        (``{"rid", "syndromes", ["deadline_us"]}``) ready to forward in
        a :meth:`handoff` to the new owner.
        """
        reply = await self._roundtrip(
            handoff_extract_request(self._fresh_id(), shard)
        )
        if reply.get("type") != "handoff_extract_reply":
            raise ServiceClosedError(
                f"unexpected extract reply type {reply.get('type')!r}"
            )
        return reply.get("entries", [])

    async def handoff(self, shard: ShardKey, entries: list) -> list:
        """Offer transferred work to the server (the target half).

        ``entries`` are wire entries from :meth:`handoff_extract`;
        returns the per-``rid`` results the server produced.
        """
        reply = await self._roundtrip(
            handoff_request(self._fresh_id(), shard, entries)
        )
        kind = reply.get("type")
        if kind == "reject":
            raise ConnectionError(
                f"handoff refused: {reply.get('reason', 'unknown')}"
            )
        if kind != "handoff_reply":
            raise ServiceClosedError(
                f"unexpected handoff reply type {kind!r}"
            )
        return reply.get("results", [])

    async def stats(self) -> dict:
        """The server's live telemetry snapshot."""
        reply = await self._roundtrip(stats_request(self._fresh_id()))
        if reply.get("type") != "stats_reply":
            raise ServiceClosedError(
                f"unexpected stats reply type {reply.get('type')!r}"
            )
        return reply["stats"]

    async def close(self) -> None:
        self._reader.cancel()
        try:
            await self._reader
        except asyncio.CancelledError:
            pass
        self._fail_pending(ServiceClosedError("client closed"))
        await self._transport.close()
