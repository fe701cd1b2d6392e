"""The cluster routing tier: replicated sharding with failover.

A :class:`DecodeCluster` consistent-hashes every geometry shard key
``(kind, distance, orientation)`` onto a preference list of
``replication`` servers (:mod:`.hashring`) and dispatches each request
to the least-loaded dispatchable one.  Replica health lives in
:mod:`.replica`: the router pings every replica each
``heartbeat_interval_s`` and reports each ping and each request
outcome to it, one call per event, and the answer says whether the
replica leaves the ring (confirmed down — which *is* the failover at
routing level: the shard's keys slide to the next server clockwise)
or rejoins it.  A request that hits a dead or wedged replica fails
over to the next candidate under one attempt budget, transient rejections
(backpressure / draining) back off per
:class:`~repro.service.client.RetryPolicy`, and when every replica is
gone the router decodes locally — the cluster-level version of the
decoder-failure -> software-fallback semantics of
:class:`repro.runtime.machine.MachineRuntime` (``failure_prob`` /
``fallback_latency``): a failed decoder never loses a round, it just
pays a slower path.  Corrections are deterministic, so every path
returns bit-identical bits; request-id idempotence at the client layer
guarantees no caller ever sees two.

Scaling is driven by the serving telemetry the paper's section III
analysis singles out — the offered/served ``f_ratio`` and the
``retry_after_us`` backpressure the shards emit — not by raw queue
depth: :meth:`AutoscalePolicy.decide` adds a server when any shard
sustains ``f >= f_high`` or rejections appear, and drains one out when
the fleet is cold.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Union

import numpy as np

from ..admission import AdmissionController, AdmissionPolicy
from ..breaker import BreakerPolicy
from ..client import DecodeClient, DecodeOutcome, RetryPolicy, ServiceClosedError
from ..pool import DecoderPool
from ..protocol import (
    MemoryTransport,
    ProtocolError,
    ShardKey,
    StreamTransport,
    error_reply,
    reject_reply,
    result_reply,
    stats_reply,
)
from ..server import (
    DecodeService,
    _admitted_deadline,
    _admitted_shard,
    _admitted_syndromes,
    _admitted_tenant,
)
from .faults import FaultInjector
from .hashring import HashRing
from .journal import JournalReplayReport, RequestJournal, reply_digest
from .migration import MigrationReport, ShardMigration
from .replica import DOWN, UP, Replica
from .telemetry import ClusterTelemetry


@dataclass(frozen=True)
class AutoscalePolicy:
    """Telemetry-driven replica scale-up/down thresholds.

    Decisions read the Lindley/backlog signals the shards already
    compute — the max per-shard ``f_ratio`` (offered/served) and the
    count of recent backpressure rejections (the ``retry_after_us``
    emissions) — never raw queue depth, which saturates at the
    admission bound and goes blind exactly when scaling matters.
    """

    f_high: float = 0.9          # any shard sustained above: add a server
    f_low: float = 0.3           # whole fleet below (and quiet): remove one
    min_replicas: int = 1
    max_replicas: int = 8
    cooldown_s: float = 1.0      # between scaling actions
    interval_s: float = 0.5      # metric poll period

    def __post_init__(self) -> None:
        if not 0.0 < self.f_low < self.f_high:
            raise ValueError("need 0 < f_low < f_high")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")

    def decide(self, max_f_ratio: Optional[float], recent_rejects: int,
               n_up: int, browned_out: int = 0) -> Optional[str]:
        """``"up"`` / ``"down"`` / ``None`` from one metric snapshot.

        ``browned_out`` counts replicas currently serving a *degraded*
        decode tier.  A brownout relieves the very signals this policy
        reads — the cheap tier drains the backlog, so ``f_ratio`` drops
        and rejections stop — which without this term would mask the
        scale-up the brownout is buying time for.  A browned-out fleet
        is therefore hot by definition, and never cold.
        """
        hot = (
            (max_f_ratio is not None and max_f_ratio >= self.f_high)
            or recent_rejects > 0
            or browned_out > 0
        )
        if hot and n_up < self.max_replicas:
            return "up"
        cold = (
            recent_rejects == 0
            and browned_out == 0
            and (max_f_ratio is None or max_f_ratio <= self.f_low)
        )
        if cold and n_up > self.min_replicas:
            return "down"
        return None


@dataclass(frozen=True)
class ClusterPolicy:
    """Knobs of the routing tier."""

    replication: int = 2         # preference-list length per shard
    vnodes: int = 32
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 0.5
    #: per-attempt client-side budget; a hung replica costs this long
    request_timeout_s: float = 2.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: decode locally when every replica has failed (zero-lost mode)
    fallback: bool = True
    autoscale: Optional[AutoscalePolicy] = None
    #: dual-write window of a live migration (target warm-up under
    #: real traffic before the ownership flip)
    migration_catchup_s: float = 0.05
    #: per-replica circuit breakers (None = never fail fast): a replica
    #: that keeps timing out or rejecting stops being dialed until its
    #: cooldown probe succeeds, so a sick server costs one trip instead
    #: of a retry storm
    breaker: Optional[BreakerPolicy] = None

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.heartbeat_interval_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat periods must be > 0")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.migration_catchup_s < 0:
            raise ValueError("migration_catchup_s must be >= 0")


def default_service_factory() -> DecodeService:
    return DecodeService()


class DecodeCluster:
    """Routes decode requests across replicated decode servers."""

    def __init__(
        self,
        n_replicas: int = 2,
        policy: Optional[ClusterPolicy] = None,
        service_factory: Callable[[], DecodeService] = default_service_factory,
        seed: Optional[int] = None,
        journal: Optional[RequestJournal] = None,
    ) -> None:
        if n_replicas < 0:
            # 0 is legal: a supervised cluster starts empty and adds
            # remote replicas as their processes come up
            raise ValueError("n_replicas must be >= 0")
        self.policy = policy or ClusterPolicy()
        self.telemetry = ClusterTelemetry()
        self._service_factory = service_factory
        self._rng = np.random.default_rng(seed)
        self._replicas: Dict[str, Replica] = {}
        self._ring = HashRing(vnodes=self.policy.vnodes)
        self._next_index = 0
        for _ in range(n_replicas):
            self._spawn_replica()
        # metadata + local-fallback decoding (one pool, lazily warmed)
        self._local_pool = DecoderPool()
        self._tasks: List[asyncio.Task] = []
        self._started = False
        self._closed = False
        self._last_scale_at = 0.0
        self._rejects_last_tick = 0
        #: durable WAL of admissions/acks; None = journaling off
        self._journal = journal
        self.replay_report: Optional[JournalReplayReport] = None
        #: per-shard explicit owner lists installed by completed
        #: migrations — consulted before the ring walk, so a flip is a
        #: single (atomic under asyncio) dict assignment
        self._shard_overrides: Dict[ShardKey, List[str]] = {}
        #: in-flight migrations, keyed by shard (dual-write routing)
        self._migrations: Dict[ShardKey, ShardMigration] = {}
        #: every shard this router has dispatched — the work list a
        #: decommission must migrate off a victim replica
        self._active_shards: Set[ShardKey] = set()
        #: set by an attached process Supervisor (cross-process mode)
        self.supervisor = None

    # -- replica management --------------------------------------------
    def _spawn_replica(self) -> Replica:
        name = f"r{self._next_index}"
        self._next_index += 1
        replica = Replica(
            name,
            service=self._service_factory(),
            injector=FaultInjector(),
            breaker=self.policy.breaker,
        )
        self._replicas[name] = replica
        self._ring.add(name)
        return replica

    def add_remote_replica(self, name: str, address: tuple) -> Replica:
        """Register a replica served by an external process at
        ``(host, port)`` (the supervisor's registration path)."""
        if name in self._replicas:
            raise ValueError(f"replica {name!r} already exists")
        replica = Replica(name, address=(address[0], int(address[1])),
                          breaker=self.policy.breaker)
        self._replicas[name] = replica
        self._ring.add(name)
        return replica

    def _retire_from_ring(self, name: str) -> None:
        if name in self._ring:
            self._ring.remove(name)
        # a retired replica must also vanish from migration-installed
        # owner lists, or a stale override would keep routing to it
        for shard, names in list(self._shard_overrides.items()):
            if name in names:
                kept = [n for n in names if n != name]
                if kept:
                    self._shard_overrides[shard] = kept
                else:
                    del self._shard_overrides[shard]

    def replica(self, name: str) -> Replica:
        return self._replicas[name]

    @property
    def replicas(self) -> List[Replica]:
        return list(self._replicas.values())

    def up_replicas(self) -> List[Replica]:
        return [r for r in self._replicas.values() if r.state == UP]

    def revive(self, name: str) -> None:
        """Bring a demoted replica back into rotation (chaos ``restore``:
        the process un-wedged and its backend is still alive)."""
        replica = self._replicas[name]
        if replica.injector is not None and replica.injector.killed:
            raise ValueError(f"replica {name!r} was killed; dead stays dead")
        replica.reset()
        if name not in self._ring:
            self._ring.add(name)

    def primary_for(self, shard: ShardKey) -> Replica:
        """The first preference-list replica of ``shard`` (chaos target
        and migration source) — override-aware, so after a migration
        flip this is the migration's target."""
        preferred = self.preference_list(shard)
        if not preferred:
            raise LookupError(f"no replica owns shard {shard.wire()}")
        return preferred[0]

    def preference_list(self, shard: ShardKey) -> List[Replica]:
        """Owner candidates in preference order.

        A migration-installed override leads; the ring walk fills the
        list back up to ``replication`` distinct names, so failover
        depth survives the flip unchanged.
        """
        names = [
            n for n in self._shard_overrides.get(shard, [])
            if n in self._replicas
        ]
        if len(self._ring):
            for name in self._ring.nodes_for(
                shard.wire(), min(self.policy.replication, len(self._ring))
            ):
                if name not in names:
                    names.append(name)
        return [self._replicas[n] for n in names[:self.policy.replication]]

    # -- metadata -------------------------------------------------------
    def n_syndromes(self, shard: ShardKey) -> int:
        return self._local_pool.n_syndromes(shard)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Launch the background loops, then replay any journal debt.

        Requests a previous incarnation admitted but never acked are
        re-decoded through the normal dispatch path and their
        *original* journal ids acked — after :meth:`start` returns, the
        journal audit owes nothing to the crash.
        """
        if self._started:
            return
        self._started = True
        loop = asyncio.get_running_loop()
        self._tasks.append(loop.create_task(self._heartbeat_loop()))
        if self.policy.autoscale is not None:
            self._tasks.append(loop.create_task(self._autoscale_loop()))
        if self._journal is not None and self._journal.recovered.unacked:
            self.replay_report = await self.replay_journal()

    async def replay_journal(self) -> JournalReplayReport:
        """Re-decode every unacked admit a dead incarnation left behind.

        Each entry runs through :meth:`decode` (journaling itself anew)
        and its **original** journal id is acked with the same digest —
        determinism guarantees the digests agree, and the audit sees
        every admit, old and new, acked exactly once.
        """
        entries = (
            self._journal.recovered.unacked
            if self._journal is not None else []
        )
        replayed = failed = shots = 0
        for entry in entries:
            outcome = await self.decode(entry.shard, entry.syndromes)
            if outcome.ok:
                self._journal.ack(
                    entry.jid, reply_digest(outcome.corrections)
                )
                replayed += 1
                shots += int(entry.syndromes.shape[0])
            else:
                failed += 1
        return JournalReplayReport(
            entries=len(entries), replayed=replayed, failed=failed,
            shots=shots,
        )

    async def close(self) -> None:
        self._closed = True
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._tasks.clear()
        if self.supervisor is not None:
            await self.supervisor.close()
        for replica in self._replicas.values():
            await replica.close()
        if self._journal is not None:
            self._journal.close()
        self._local_pool.close()

    # -- dispatch -------------------------------------------------------
    def _pick(self, shard: ShardKey,
              avoid: Optional[str] = None) -> Optional[Replica]:
        """Least-loaded :attr:`~Replica.dispatchable` replica from the
        preference list, extending clockwise past it when the whole list
        is sick.  When every breaker in the fleet is open the pick fails
        and the caller falls through to the local decode fallback —
        fast local failure is exactly what an open breaker promises.

        ``avoid`` skips the replica a failed attempt just used, so an
        immediate failover lands elsewhere even before the heartbeat
        confirms the death (it remains a last resort if it is the only
        candidate left).  Suspects sort after confirmed-up replicas —
        the dispatch half of flap damping: a recovering server earns
        its ping streak before full-weight traffic returns."""
        preferred = self.preference_list(shard)
        for candidates in (preferred, self.replicas):
            live = [r for r in candidates if r.dispatchable]
            if avoid is not None and len(live) > 1:
                live = [r for r in live if r.name != avoid]
            if live:
                # ties on inflight resolve in preference order, so an
                # idle fleet serves each shard from its ring primary
                return min(
                    enumerate(live),
                    key=lambda ir: (
                        ir[1].state != UP, ir[1].inflight, ir[0]
                    ),
                )[1]
        return None

    async def decode(self, shard: ShardKey, syndromes: np.ndarray,
                     deadline_us: Optional[float] = None,
                     tenant: Optional[str] = None,
                     priority: Optional[int] = None) -> DecodeOutcome:
        """Decode with load-balanced dispatch, failover and fallback.

        ``deadline_us`` is a *relative* budget, consumed across every
        attempt: each dispatch carries only the remaining budget, no
        backoff sleeps past it, and a request whose deadline lapses
        inside the routing tier is shed (reason ``"deadline"``) rather
        than decoded dead.  ``tenant`` / ``priority`` ride through to
        the serving replica's admission and fair-queueing layers.

        Returns exactly once per call, with ``metadata`` recording the
        serving replica, the attempt count and whether the local
        fallback fired.  With the fallback enabled the request cannot
        be lost: decoding is deterministic, so every path yields the
        same correction bits.

        When a journal is attached, the request is WAL-admitted before
        dispatch and acked (with its reply digest) only once a
        correction is delivered — the admit-without-ack gap is exactly
        the replay work list after a crash.  During a live migration's
        dual-write window, requests for the migrating shard go to both
        owners and exactly one reply is delivered.
        """
        if not self._started:
            await self.start()
        self.telemetry.requests += 1
        self._active_shards.add(shard)
        jid = (
            self._journal.admit(shard, syndromes)
            if self._journal is not None else None
        )
        outcome: Optional[DecodeOutcome] = None
        migration = self._migrations.get(shard)
        if migration is not None and migration.dual_writing:
            started = time.monotonic()
            outcome = await migration.dual_decode(syndromes, deadline_us)
            if outcome is not None:
                self.telemetry.on_outcome(True, time.monotonic() - started)
        if outcome is None:
            outcome = await self._decode_routed(
                shard, syndromes, deadline_us, tenant, priority
            )
        if jid is not None and outcome.ok:
            self._journal.ack(jid, reply_digest(outcome.corrections))
        return outcome

    async def _decode_routed(self, shard: ShardKey, syndromes: np.ndarray,
                             deadline_us: Optional[float] = None,
                             tenant: Optional[str] = None,
                             priority: Optional[int] = None
                             ) -> DecodeOutcome:
        """The pick / failover / backoff / fallback attempt loop."""
        policy = self.policy
        started = time.monotonic()
        deadline_at = (
            started + deadline_us / 1e6 if deadline_us is not None else None
        )

        def remaining_us() -> Optional[float]:
            if deadline_at is None:
                return None
            return (deadline_at - time.monotonic()) * 1e6

        def finish(outcome: DecodeOutcome, **meta) -> DecodeOutcome:
            outcome.metadata.update(
                attempts=attempts, failovers=failovers, **meta
            )
            self.telemetry.on_outcome(outcome.ok, time.monotonic() - started)
            return outcome

        def shed_dead() -> DecodeOutcome:
            # the deadline lapsed inside the routing tier: shed here —
            # a dead request must never burn a decode anywhere
            self.telemetry.deadline_shed += 1
            return finish(DecodeOutcome(ok=False, reason="deadline"))

        attempts = 0
        failovers = 0
        last_outcome: Optional[DecodeOutcome] = None
        avoid: Optional[str] = None
        while attempts < policy.retry.max_attempts:
            left = remaining_us()
            if left is not None and left <= 0:
                return shed_dead()
            replica = self._pick(shard, avoid=avoid)
            if replica is None:
                break
            attempts += 1
            if not replica.acquire():
                # a concurrent request raced us into the half-open
                # probe: treat like a failed attempt elsewhere
                avoid = replica.name
                continue
            replica.inflight += 1
            try:
                client = await replica.ensure_client()
                outcome = await asyncio.wait_for(
                    client.decode(
                        shard, syndromes, remaining_us(), tenant, priority
                    ),
                    policy.request_timeout_s,
                )
            except asyncio.TimeoutError:
                # hung or overwhelmed: suspect now, down after repeats
                self.telemetry.timeouts += 1
                self.telemetry.failovers += 1
                failovers += 1
                if replica.record_timeout():
                    self._retire_from_ring(replica.name)
                avoid = replica.name
                continue
            except (ServiceClosedError, ConnectionError, OSError):
                # the replica died under the request: fail over
                self.telemetry.failovers += 1
                failovers += 1
                if replica.record_dead():
                    self._retire_from_ring(replica.name)
                avoid = replica.name
                continue
            finally:
                replica.inflight -= 1
            replica.record(outcome)
            if outcome.ok:
                return finish(outcome, replica=replica.name, fallback=False)
            if outcome.reason == "migrated":
                # the shard's ownership flipped out from under the
                # queue: the new owner is ready *now*, so re-dispatch
                # with no backoff (and don't count it as pressure; the
                # replica answered promptly — not a breaker failure)
                self.telemetry.migrated_retries += 1
                avoid = replica.name
                continue
            if outcome.reason == "deadline":
                # the server shed it as expired: it is expired here too,
                # and retrying cannot resurrect it
                self.telemetry.deadline_shed += 1
                return finish(outcome, replica=replica.name, fallback=False)
            if outcome.rejected:
                # backpressure / quota / draining: back off, go elsewhere
                self.telemetry.retries += 1
                self._rejects_last_tick += 1
                last_outcome = outcome
                wait_us = policy.retry.backoff_us(
                    attempts - 1, outcome.retry_after_us, self._rng
                )
                left = remaining_us()
                if left is not None and wait_us >= left:
                    return shed_dead()
                if wait_us > 0:
                    await asyncio.sleep(wait_us / 1e6)
                avoid = replica.name
                continue
            # permanent (too_large / error): no point retrying
            return finish(outcome, replica=replica.name, fallback=False)
        # replicas exhausted -> the machine-runtime fallback semantics
        if policy.fallback:
            left = remaining_us()
            if left is not None and left <= 0:
                return shed_dead()
            result = await self._local_pool.decode_async(shard, syndromes)
            self.telemetry.fallback_decodes += 1
            outcome = DecodeOutcome(
                ok=True,
                corrections=result.corrections,
                converged=np.asarray(result.converged, dtype=bool),
                cycles=result.cycles,
                latency_us=(time.monotonic() - started) * 1e6,
            )
            return finish(outcome, replica=None, fallback=True)
        return finish(last_outcome or DecodeOutcome(
            ok=False, reason="unavailable",
            error="no replica available and fallback disabled",
        ))

    # -- background loops ----------------------------------------------
    async def _heartbeat_loop(self) -> None:
        policy = self.policy
        # ``close()`` sets ``_closed`` before it cancels this task.  On
        # Python < 3.12 ``asyncio.wait_for`` (inside ``ping``) swallows a
        # cancellation that lands together with the reply; the flag
        # still ends the loop then, so ``close()`` cannot hang on it
        while not self._closed:
            await asyncio.sleep(policy.heartbeat_interval_s)
            for replica in list(self._replicas.values()):
                if not replica.available:
                    continue
                try:
                    await replica.heartbeat(policy.heartbeat_timeout_s)
                    ok = True
                except Exception:        # cancellation still propagates
                    ok = False
                transition = replica.record_ping(ok)
                if transition == DOWN:
                    self._retire_from_ring(replica.name)
                elif transition == UP and replica.name not in self._ring:
                    self._ring.add(replica.name)

    async def _autoscale_loop(self) -> None:
        autoscale = self.policy.autoscale
        assert autoscale is not None
        while not self._closed:  # see _heartbeat_loop
            await asyncio.sleep(autoscale.interval_s)
            await self.autoscale_tick()

    async def autoscale_tick(self) -> Optional[str]:
        """One telemetry-driven scaling decision (also called by tests)."""
        autoscale = self.policy.autoscale
        if autoscale is None:
            return None
        now = time.monotonic()
        if now - self._last_scale_at < autoscale.cooldown_s:
            self._rejects_last_tick = 0
            return None
        max_f = self._max_f_ratio()
        rejects = self._rejects_last_tick
        self._rejects_last_tick = 0
        decision = autoscale.decide(
            max_f, rejects, len(self.up_replicas()),
            browned_out=self._browned_out_replicas(),
        )
        if decision == "up":
            self._spawn_replica()
            self.telemetry.scale_ups += 1
            self._last_scale_at = now
        elif decision == "down":
            await self._scale_down_one()
            self._last_scale_at = now
        return decision

    def _max_f_ratio(self) -> Optional[float]:
        """Worst offered/served ratio across every up replica's shards."""
        worst: Optional[float] = None
        for replica in self.up_replicas():
            if replica.service is None:
                continue            # remote replicas: polled via stats()
            for shard_stats in replica.service.telemetry.shards().values():
                f = shard_stats.f_ratio
                if f is not None and (worst is None or f > worst):
                    worst = f
        return worst

    def _browned_out_replicas(self) -> int:
        """Up in-process replicas currently serving a degraded tier.

        Feeds :meth:`AutoscalePolicy.decide` so a brownout — which
        relieves ``f_ratio`` and rejections by construction — still
        reads as heat and cannot mask its own scale-up signal.
        """
        count = 0
        for replica in self.up_replicas():
            service = replica.service
            if (service is not None and service.brownout is not None
                    and service.brownout.browned_out):
                count += 1
        return count

    async def _scale_down_one(self) -> None:
        candidates = self.up_replicas()
        if len(candidates) <= (self.policy.autoscale.min_replicas
                               if self.policy.autoscale else 1):
            return
        victim = min(candidates, key=lambda r: (r.inflight, r.name))
        self.telemetry.scale_downs += 1
        await self.decommission(victim.name)

    # -- live migration -------------------------------------------------
    def _install_override(self, shard: ShardKey, target_name: str) -> None:
        """Atomically make ``target_name`` the shard's primary.

        The rest of the old preference list is kept behind it, so
        failover depth and the surviving secondaries are stable across
        the flip (asserted by the hashring churn tests).
        """
        names = [target_name] + [
            r.name for r in self.preference_list(shard)
            if r.name != target_name
        ]
        self._shard_overrides[shard] = names[:self.policy.replication]

    async def migrate(self, shard: ShardKey, target_name: str,
                      catchup_s: Optional[float] = None) -> MigrationReport:
        """Move ``shard``'s ownership to ``target_name``, live.

        Dual-writes for the catch-up window (default
        ``policy.migration_catchup_s``), atomically flips the per-shard
        preference override, then hands the source's
        queued-but-undecoded work to the target — no drain gap; see
        :mod:`.migration`.
        """
        target = self._replicas[target_name]
        if not target.available:
            raise ValueError(f"migration target {target_name!r} is not up")
        source = self.primary_for(shard)
        if source.name == target_name:
            raise ValueError(
                f"{target_name!r} already owns shard {shard.wire()}"
            )
        if shard in self._migrations:
            raise ValueError(
                f"shard {shard.wire()} is already migrating"
            )
        migration = ShardMigration(
            self, shard, source, target,
            self.policy.migration_catchup_s
            if catchup_s is None else catchup_s,
        )
        self._migrations[shard] = migration
        try:
            return await migration.run()
        finally:
            del self._migrations[shard]

    async def decommission(self, name: str) -> List[MigrationReport]:
        """Remove a replica with zero drain gap.

        Every active shard whose primary is the victim is live-migrated
        to its least-loaded surviving peer first; only then is the
        victim retired from the ring and gracefully stopped — by which
        point its queues are empty and the stop is near-instant.  This
        is the scale-down path (replacing bare ``drain_and_stop``).
        """
        victim = self._replicas[name]
        reports: List[MigrationReport] = []
        survivors = [
            r for r in self._replicas.values()
            if r.name != name and r.available
        ]
        if survivors:
            for shard in sorted(self._active_shards, key=lambda s: s.wire()):
                if shard in self._migrations:
                    continue
                try:
                    primary = self.primary_for(shard)
                except LookupError:
                    continue
                if primary.name != name:
                    continue
                target = min(survivors, key=lambda r: (r.inflight, r.name))
                reports.append(await self.migrate(shard, target.name))
        self._retire_from_ring(name)          # no new work routes to it
        await victim.drain_and_stop()         # empty by now: instant
        return reports

    # -- stats ----------------------------------------------------------
    def stats(self) -> dict:
        payload = self.telemetry.snapshot()
        payload["duplicate_replies"] = sum(
            r._client.duplicate_replies
            for r in self._replicas.values() if r._client is not None
        )
        payload["replicas"] = {
            name: r.snapshot() for name, r in sorted(self._replicas.items())
        }
        payload["ring_nodes"] = self._ring.nodes
        payload["shard_overrides"] = {
            shard.wire(): list(names)
            for shard, names in sorted(
                self._shard_overrides.items(), key=lambda kv: kv[0].wire()
            )
        }
        if self._journal is not None:
            payload["journal"] = {
                "path": str(self._journal.path),
                "unacked": len(self._journal.unacked),
                "fsyncs": self._journal.fsyncs,
                "replay": (
                    self.replay_report.as_dict()
                    if self.replay_report is not None else None
                ),
            }
        return payload


class ClusterFrontend:
    """Wire-protocol facade of a cluster: clients cannot tell it from a
    single :class:`~repro.service.server.DecodeService`.

    Accepts the same framed messages over TCP or in-process transports,
    validates admission exactly like a server would, and answers from
    ``cluster.decode`` — so existing clients, the load generator and
    the CLI all work against a replicated fleet unchanged.

    ``admission`` installs the same per-tenant token-bucket gate a
    single :class:`~repro.service.server.DecodeService` takes: an
    over-quota tenant is rejected with reason ``"quota"`` *here*, at
    the fleet's front door, before its work touches the routing tier.
    """

    def __init__(self, cluster: DecodeCluster,
                 admission: Optional[Union[AdmissionPolicy,
                                           AdmissionController]] = None
                 ) -> None:
        self.cluster = cluster
        self.admission: Optional[AdmissionController] = (
            AdmissionController(admission)
            if isinstance(admission, AdmissionPolicy) else admission
        )
        self._tasks: set = set()
        self._tcp_server: Optional[asyncio.AbstractServer] = None

    async def start_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> tuple:
        async def handle(reader, writer):
            await self.serve_transport(StreamTransport(reader, writer))

        self._tcp_server = await asyncio.start_server(handle, host, port)
        sockname = self._tcp_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def connect(self) -> MemoryTransport:
        client_end, server_end = MemoryTransport.pair()
        task = asyncio.get_running_loop().create_task(
            self.serve_transport(server_end)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return client_end

    def connect_client(self) -> DecodeClient:
        return DecodeClient(self.connect())

    async def serve_transport(self, transport) -> None:
        request_tasks: set = set()
        try:
            while True:
                try:
                    message = await transport.recv()
                except ProtocolError as exc:
                    with contextlib.suppress(ConnectionError, OSError):
                        await transport.send(error_reply(None, str(exc)))
                    break
                if message is None:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._handle(transport, message)
                )
                request_tasks.add(task)
                task.add_done_callback(request_tasks.discard)
        finally:
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)
            await transport.close()

    async def _handle(self, transport, message: dict) -> None:
        request_id = message.get("id")
        try:
            reply = await self._dispatch(message)
        except ProtocolError as exc:
            reply = error_reply(request_id, str(exc))
        except Exception as exc:
            reply = error_reply(request_id, f"internal error: {exc}")
        with contextlib.suppress(ConnectionError, OSError):
            await transport.send(reply)

    async def _dispatch(self, message: dict) -> dict:
        kind = message.get("type")
        request_id = message.get("id")
        if kind == "stats":
            payload = self.cluster.stats()
            if self.admission is not None:
                payload["admission"] = self.admission.snapshot()
            return stats_reply(request_id, payload)
        if kind == "ping":
            return {"type": "pong", "id": request_id}
        if kind != "decode":
            raise ProtocolError(f"unknown message type {kind!r}")
        if not isinstance(request_id, int):
            raise ProtocolError("decode request needs an integer 'id'")
        shard = _admitted_shard(message)
        tenant, priority = _admitted_tenant(message)
        deadline_us = _admitted_deadline(message)
        syndromes = _admitted_syndromes(
            shard, message.get("syndromes", {}), self.cluster.n_syndromes
        )
        if self.admission is not None:
            wait_us = self.admission.admit(tenant, syndromes.shape[0])
            if wait_us is not None:
                # over quota: shed at the fleet's front door — the
                # routing tier and every replica never see this work
                self.cluster.telemetry.quota_rejects += 1
                return reject_reply(request_id, "quota", wait_us, 0)
        outcome = await self.cluster.decode(
            shard, syndromes, deadline_us,
            tenant=tenant, priority=priority,
        )
        if outcome.ok:
            return result_reply(
                request_id, outcome.corrections,
                np.asarray(outcome.converged, dtype=np.uint8),
                outcome.cycles, outcome.queued_us, outcome.decode_us,
                outcome.batch_shots, outcome.tier,
            )
        if outcome.reason in ("backpressure", "quota", "deadline",
                              "draining", "too_large", "unavailable"):
            return reject_reply(
                request_id, outcome.reason, outcome.retry_after_us,
                outcome.queue_depth,
            )
        return error_reply(request_id, outcome.error or "decode failed")

    async def close(self) -> None:
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
