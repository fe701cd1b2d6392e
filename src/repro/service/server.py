"""The asyncio decode server: transports in, micro-batched decodes out.

One :class:`DecodeService` owns a :class:`~repro.service.pool.DecoderPool`,
a :class:`~repro.service.batcher.MicroBatcher` and a
:class:`~repro.service.telemetry.ServiceTelemetry`.  Connections arrive
either over TCP (:meth:`DecodeService.start_tcp`) or in-process
(:meth:`DecodeService.connect`, used by tests and the loadgen fast
path); both speak the same framed protocol.  Each decode request runs
as its own task, so replies pipeline out of order and a connection with
many requests in flight feeds the micro-batcher exactly like many
single-request connections would.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Callable, Optional, Set, Union

import numpy as np

from ..decoders import DECODER_REGISTRY
from .admission import AdmissionController, AdmissionPolicy
from .batcher import BatchedResult, BatchPolicy, MicroBatcher, Rejection
from .brownout import BrownoutController, BrownoutPolicy
from .pool import DecoderPool
from .protocol import (
    MemoryTransport,
    ProtocolError,
    ShardKey,
    StreamTransport,
    error_reply,
    handoff_entry,
    handoff_extract_reply,
    handoff_reply,
    pack_bitmap,
    reject_reply,
    result_reply,
    stats_reply,
    unpack_bitmap,
)
from .telemetry import ServiceTelemetry

Transport = Union[StreamTransport, MemoryTransport]

#: admission cap on client-supplied distances: every shard key creates
#: server-side state (lattice cache, shard worker, telemetry), so the
#: key space must be bounded against misbehaving clients
MAX_DISTANCE = 51

#: admission cap on tenant labels (each creates telemetry + admission
#: state server-side, so the namespace must be bounded too)
MAX_TENANT_CHARS = 64

#: priority classes outside this band are a protocol error — the
#: batcher sorts classes strictly, so an unbounded band would let one
#: client invent a class above everyone
PRIORITY_BAND = 8


def _admitted_shard(message: dict) -> ShardKey:
    """Parse + admission-validate a message's shard key.

    Every unique shard key creates state (lattice cache, worker task,
    telemetry), so bogus kinds must fail here, not as an opaque decode
    error after the leak.
    """
    shard = ShardKey.parse(message.get("shard", ""))
    if shard.decoder not in DECODER_REGISTRY:
        known = ", ".join(sorted(DECODER_REGISTRY))
        raise ProtocolError(
            f"unknown decoder kind {shard.decoder!r}; known: {known}"
        )
    if shard.distance > MAX_DISTANCE:
        raise ProtocolError(
            f"distance {shard.distance} exceeds the service cap "
            f"{MAX_DISTANCE}"
        )
    return shard


def _admitted_syndromes(shard: ShardKey, obj: dict, n_syndromes) -> np.ndarray:
    """Unpack + validate a bitmap; ``n_syndromes(shard)`` is its width."""
    syndromes = unpack_bitmap(obj)
    if syndromes.ndim != 2:
        raise ProtocolError(
            f"syndromes must be 2-D (shots, bits), got {syndromes.shape}"
        )
    expected = n_syndromes(shard)
    if syndromes.shape[1] != expected:
        raise ProtocolError(
            f"shard {shard.wire()} wants {expected} syndrome bits per "
            f"shot, got {syndromes.shape[1]}"
        )
    if syndromes.shape[0] == 0:
        raise ProtocolError("empty decode request (0 shots)")
    return syndromes


def _admitted_tenant(message: dict) -> tuple:
    """Parse + validate a message's tenant label and priority.

    Both create server-side state (telemetry, buckets, queues), so
    bogus values fail as protocol errors instead of leaking keys.
    """
    tenant = message.get("tenant", "default")
    if (not isinstance(tenant, str) or not tenant
            or len(tenant) > MAX_TENANT_CHARS):
        raise ProtocolError(
            "'tenant' must be a non-empty string of at most "
            f"{MAX_TENANT_CHARS} chars"
        )
    priority = message.get("priority", 0)
    if (not isinstance(priority, int) or isinstance(priority, bool)
            or abs(priority) > PRIORITY_BAND):
        raise ProtocolError(
            f"'priority' must be an integer in "
            f"[-{PRIORITY_BAND}, {PRIORITY_BAND}]"
        )
    return tenant, priority


def _admitted_deadline(message: dict) -> Optional[float]:
    deadline_us = message.get("deadline_us")
    if deadline_us is None:
        return None
    if isinstance(deadline_us, bool) or not isinstance(
            deadline_us, (int, float)):
        raise ProtocolError("'deadline_us' must be a number")
    return float(deadline_us)


class DecodeService:
    """Decode-as-a-service endpoint over any framed transport."""

    def __init__(
        self,
        pool: Optional[DecoderPool] = None,
        policy: Optional[BatchPolicy] = None,
        read_timeout_s: Optional[float] = None,
        drain_timeout_s: float = 5.0,
        admission: Optional[Union[AdmissionPolicy,
                                  AdmissionController]] = None,
        brownout: Optional[Union[BrownoutPolicy,
                                 BrownoutController]] = None,
    ) -> None:
        self.pool = pool or DecoderPool()
        self.policy = policy or BatchPolicy()
        self.telemetry = ServiceTelemetry()
        #: per-tenant token-bucket admission (None = every tenant
        #: unmetered, the historical behavior)
        self.admission: Optional[AdmissionController] = (
            AdmissionController(admission)
            if isinstance(admission, AdmissionPolicy) else admission
        )
        #: fidelity brownout controller (None = always decode the
        #: requested tier)
        if isinstance(brownout, BrownoutPolicy):
            brownout = BrownoutController(brownout)
        self.brownout: Optional[BrownoutController] = brownout
        if self.brownout is not None and self.brownout.telemetry is None:
            self.brownout.telemetry = self.telemetry
        self._brownout_task: Optional[asyncio.Task] = None
        self.batcher: Optional[MicroBatcher] = None
        #: mid-frame socket read timeout for TCP connections (None =
        #: wait forever; idle waits between frames are always unbounded)
        self.read_timeout_s = read_timeout_s
        #: how long close() waits for in-flight batches to flush before
        #: hard-cancelling (a wedged decoder must not block shutdown)
        self.drain_timeout_s = drain_timeout_s
        self._tasks: Set[asyncio.Task] = set()
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._closed = False
        self._draining = False
        self._inflight_requests = 0
        self._idle = asyncio.Event()

    def _ensure_batcher(self) -> MicroBatcher:
        # created lazily so the service can be built outside a loop
        if self._closed:
            raise ConnectionError("service is closed")
        if self.batcher is None:
            self.batcher = MicroBatcher(
                self.pool, self.policy, self.telemetry,
                weigher=(
                    self.admission.weight
                    if self.admission is not None else None
                ),
                brownout=self.brownout,
            )
        if (self.brownout is not None and self._brownout_task is None
                and self.brownout.policy.interval_s > 0):
            self._brownout_task = asyncio.get_running_loop().create_task(
                self._brownout_loop(), name="brownout-controller"
            )
        return self.batcher

    async def _brownout_loop(self) -> None:
        interval = self.brownout.policy.interval_s
        while True:
            await asyncio.sleep(interval)
            self.brownout.tick()

    # -- transports ----------------------------------------------------
    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0,
                        transport_wrap: Optional[Callable] = None) -> tuple:
        """Listen on TCP; returns the bound ``(host, port)``.

        ``transport_wrap`` decorates each accepted connection's
        transport (e.g. a :class:`~repro.service.cluster.faults
        .FaultInjector`'s ``wrap``) — the hook that makes TCP replicas
        chaos-injectable exactly like in-process ones.
        """
        self._ensure_batcher()

        async def handle(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            transport: object = StreamTransport(
                reader, writer, read_timeout_s=self.read_timeout_s
            )
            if transport_wrap is not None:
                transport = transport_wrap(transport)
            await self.serve_transport(transport)

        self._tcp_server = await asyncio.start_server(handle, host, port)
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def connect(self, transport_wrap: Optional[Callable] = None
                ) -> MemoryTransport:
        """A connected in-process client transport (server side served
        by a background task).  ``transport_wrap`` decorates the server
        end — the in-process fault-injection hook."""
        self._ensure_batcher()
        client_end, server_end = MemoryTransport.pair()
        transport = (
            transport_wrap(server_end) if transport_wrap is not None
            else server_end
        )
        task = asyncio.get_running_loop().create_task(
            self.serve_transport(transport)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return client_end

    # -- connection loop ----------------------------------------------
    async def serve_transport(self, transport: Transport) -> None:
        """Serve one connection until EOF."""
        self._ensure_batcher()
        self.telemetry.connections += 1
        # track the connection so close() is final for TCP handlers too
        current = asyncio.current_task()
        if current is not None:
            self._tasks.add(current)
            current.add_done_callback(self._tasks.discard)
        request_tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    message = await transport.recv()
                except ProtocolError as exc:
                    self.telemetry.protocol_errors += 1
                    # the peer may already be gone (e.g. it sent a
                    # garbage frame and hung up): a failed error reply
                    # must not escape as an unretrieved task exception
                    with contextlib.suppress(ConnectionError, OSError):
                        await transport.send(error_reply(None, str(exc)))
                    break
                if message is None:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._handle_message(transport, message)
                )
                request_tasks.add(task)
                task.add_done_callback(request_tasks.discard)
        finally:
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)
            await transport.close()

    async def _handle_message(self, transport: Transport,
                              message: dict) -> None:
        request_id = message.get("id")
        self._inflight_requests += 1
        self._idle.clear()
        try:
            try:
                reply = await self._dispatch(message)
            except ProtocolError as exc:
                self.telemetry.protocol_errors += 1
                reply = error_reply(request_id, str(exc))
            except Exception as exc:
                reply = error_reply(request_id, f"internal error: {exc}")
            with contextlib.suppress(ConnectionError, OSError):
                await transport.send(reply)
        finally:
            # the reply is on the wire (or the peer is gone) before the
            # request stops counting as in flight — drain() waits for
            # sends, not just decodes
            self._inflight_requests -= 1
            if self._inflight_requests == 0:
                self._idle.set()

    async def _dispatch(self, message: dict) -> dict:
        kind = message.get("type")
        request_id = message.get("id")
        if kind == "stats":
            return stats_reply(request_id, self.stats())
        if kind == "ping":
            return {"type": "pong", "id": request_id}
        if kind == "handoff_extract":
            return self._dispatch_handoff_extract(message)
        if kind == "handoff":
            return await self._dispatch_handoff(message)
        if kind != "decode":
            raise ProtocolError(f"unknown message type {kind!r}")
        if not isinstance(request_id, int):
            raise ProtocolError("decode request needs an integer 'id'")
        if self._draining:
            # stats/ping above still answer during a drain; only new
            # decode work is turned away (transiently — a retrying
            # client or the cluster router goes elsewhere)
            return reject_reply(
                request_id, "draining",
                self.policy.default_retry_after_us, 0,
            )
        shard = _admitted_shard(message)
        tenant, priority = _admitted_tenant(message)
        deadline_us = _admitted_deadline(message)
        syndromes = _admitted_syndromes(
            shard, message.get("syndromes", {}), self.pool.n_syndromes
        )
        if self.admission is not None:
            wait_us = self.admission.admit(tenant, syndromes.shape[0])
            if wait_us is not None:
                # over quota: shed at admission — the shared queue (and
                # every other tenant behind it) never sees this work
                shots = int(syndromes.shape[0])
                self.telemetry.shard(shard.wire()).on_reject(shots, "quota")
                self.telemetry.tenant(tenant).on_shed(shots, "quota")
                return reject_reply(request_id, "quota", wait_us, 0)
        outcome = await self._ensure_batcher().submit(
            shard, syndromes, deadline_us, tenant, priority
        )
        if isinstance(outcome, Rejection):
            return reject_reply(
                request_id, outcome.reason, outcome.retry_after_us,
                outcome.queue_depth,
            )
        assert isinstance(outcome, BatchedResult)
        return result_reply(
            request_id, outcome.corrections, outcome.converged,
            outcome.cycles, outcome.queued_us, outcome.decode_us,
            outcome.batch_shots, outcome.tier,
        )

    # -- live-migration handoff ---------------------------------------
    def _dispatch_handoff_extract(self, message: dict) -> dict:
        """Give up this server's queued-but-undecoded work for a shard.

        The source side of a live migration: extracted submissions are
        answered locally with transient ``migrated`` rejections (their
        callers re-dispatch through the router, which already points at
        the new owner) while the raw payloads travel back to the
        migration coordinator in the reply's ``entries``.
        """
        request_id = message.get("id")
        if not isinstance(request_id, int):
            raise ProtocolError("handoff_extract needs an integer 'id'")
        shard = _admitted_shard(message)
        extracted = self._ensure_batcher().extract_queued(shard)
        entries = [
            handoff_entry(rid, syndromes, deadline_us)
            for rid, (syndromes, deadline_us) in enumerate(extracted)
        ]
        return handoff_extract_reply(request_id, entries)

    async def _dispatch_handoff(self, message: dict) -> dict:
        """Adopt transferred work (the target side of a migration).

        Every entry runs through the normal micro-batching path — same
        queue bound, same batching window, same telemetry — and its
        result (or rejection) is returned keyed by the caller-chosen
        ``rid``.  A draining target refuses the whole frame: a
        coordinator must not strand work on a server on its way down.
        """
        request_id = message.get("id")
        if not isinstance(request_id, int):
            raise ProtocolError("handoff needs an integer 'id'")
        if self._draining:
            return reject_reply(
                request_id, "draining",
                self.policy.default_retry_after_us, 0,
            )
        shard = _admitted_shard(message)
        raw_entries = message.get("entries", [])
        if not isinstance(raw_entries, list):
            raise ProtocolError("handoff 'entries' must be a list")
        parsed = []
        for entry in raw_entries:
            if not isinstance(entry, dict) or "rid" not in entry:
                raise ProtocolError("handoff entry needs a 'rid'")
            parsed.append((
                int(entry["rid"]),
                _admitted_syndromes(shard, entry.get("syndromes", {}),
                                    self.pool.n_syndromes),
                entry.get("deadline_us"),
            ))
        batcher = self._ensure_batcher()
        outcomes = await asyncio.gather(*(
            batcher.submit(shard, syndromes, deadline_us)
            for _, syndromes, deadline_us in parsed
        ))
        results = []
        for (rid, _, _), outcome in zip(parsed, outcomes):
            if isinstance(outcome, Rejection):
                results.append({
                    "rid": rid,
                    "status": "reject",
                    "reason": outcome.reason,
                    "retry_after_us": round(outcome.retry_after_us, 3),
                })
            else:
                results.append({
                    "rid": rid,
                    "status": "ok",
                    "corrections": pack_bitmap(outcome.corrections),
                    "converged": pack_bitmap(
                        np.asarray(outcome.converged, dtype=np.uint8)
                    ),
                })
        return handoff_reply(request_id, results)

    # -- stats / lifecycle --------------------------------------------
    def stats(self) -> dict:
        payload = self.telemetry.snapshot()
        payload["draining"] = self._draining
        payload["pool"] = {
            "workers": self.pool.workers,
            "live_shards": self.pool.live_shards,
            "builds": self.pool.builds,
            "evictions": self.pool.evictions,
        }
        payload["policy"] = {
            "max_batch": self.policy.max_batch,
            "max_wait_us": self.policy.max_wait_us,
            "max_queue_shots": self.policy.max_queue_shots,
            "max_tenant_queue_fraction":
                self.policy.max_tenant_queue_fraction,
        }
        if self.admission is not None:
            payload["admission"] = self.admission.snapshot()
        if self.brownout is not None:
            payload["brownout"] = self.brownout.snapshot()
        return payload

    async def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Graceful quiesce: reject new decodes, flush in-flight work.

        Queued micro-batches run to completion and their replies are
        sent; new decode requests are rejected with reason
        ``"draining"``; stats/ping keep answering.  Returns ``True``
        when the service went fully idle within ``timeout_s`` (default:
        ``drain_timeout_s``), ``False`` if work was still wedged —
        either way the service stays up until :meth:`close`.
        """
        self._draining = True
        timeout = self.drain_timeout_s if timeout_s is None else timeout_s
        flushed = True
        if self.batcher is not None:
            flushed = await self.batcher.drain(timeout)
        if self._inflight_requests > 0:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout)
            except asyncio.TimeoutError:
                flushed = False
        return flushed

    async def close(self, drain: bool = True) -> None:
        """Shut down transports, workers and the pool; final.

        With ``drain=True`` (the default) in-flight micro-batches are
        flushed and their replies delivered before connections come
        down — a ``close()`` racing live traffic loses no accepted
        work.  ``drain=False`` is the hard-kill path (what the chaos
        harness uses to model a dead process).  Connections that
        survive the cancellation sweep (or stray references) cannot
        resurrect the service: further requests fail with ``service is
        closed``.
        """
        if drain and not self._closed and self.batcher is not None:
            await self.drain()
        self._closed = True
        if self._brownout_task is not None:
            self._brownout_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._brownout_task
            self._brownout_task = None
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self.batcher is not None:
            await self.batcher.close()
            self.batcher = None
        self.pool.close()
