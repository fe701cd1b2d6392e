"""Cluster tier: hashing, retry policy, fault injection, routing.

The load-bearing guarantees under test: shard keys route
deterministically with minimal remap on membership change; a replica
failure never loses a correction (failover, then the local-fallback
path) and never duplicates one (request-id idempotence); and every
served correction stays bit-identical to a direct ``decode_batch``
golden run no matter which path produced it.
"""

import asyncio

import numpy as np
import pytest

from repro.service import (
    BreakerPolicy,
    DecodeOutcome,
    DecodeService,
    RetryPolicy,
    ShardKey,
)
from repro.service.cluster import (
    AutoscalePolicy,
    ClusterFrontend,
    ClusterPolicy,
    DecodeCluster,
    FaultInjector,
    FaultSpec,
    HashRing,
    Replica,
    stable_hash,
)
from repro.service.cluster.replica import MISSES_DOWN, RECOVERY_PINGS
from repro.service.protocol import MemoryTransport, decode_request, pack_bitmap
from repro.service.server import MAX_DISTANCE

from test_service import direct_batch, make_syndromes

SHARD = ShardKey("unionfind", 3, "z")


def fast_policy(**overrides) -> ClusterPolicy:
    defaults = dict(
        heartbeat_interval_s=0.03,
        heartbeat_timeout_s=0.1,
        request_timeout_s=0.5,
        retry=RetryPolicy(max_attempts=4, base_us=200.0, jitter=0.0),
    )
    defaults.update(overrides)
    return ClusterPolicy(**defaults)


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("mwpm:d5:z") == stable_hash("mwpm:d5:z")

    def test_spreads(self):
        values = {stable_hash(f"key{i}") for i in range(100)}
        assert len(values) == 100


class TestHashRing:
    def test_membership(self):
        ring = HashRing(["a", "b"])
        assert "a" in ring and len(ring) == 2
        ring.add("c")
        assert ring.nodes == ["a", "b", "c"]
        ring.remove("b")
        assert "b" not in ring
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(ValueError):
            ring.remove("b")

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError):
            HashRing().node_for("k")

    def test_lookup_deterministic(self):
        ring1 = HashRing(["a", "b", "c"])
        ring2 = HashRing(["c", "a", "b"])   # insertion order irrelevant
        for i in range(50):
            assert ring1.node_for(f"k{i}") == ring2.node_for(f"k{i}")

    def test_nodes_for_distinct_prefix(self):
        ring = HashRing(["a", "b", "c", "d"])
        for i in range(20):
            prefs = ring.nodes_for(f"k{i}", 3)
            assert len(prefs) == len(set(prefs)) == 3
            # nodes_for(n) extends nodes_for(n-1)
            assert ring.nodes_for(f"k{i}", 2) == prefs[:2]
            assert ring.node_for(f"k{i}") == prefs[0]

    def test_n_larger_than_membership(self):
        ring = HashRing(["a", "b"])
        assert sorted(ring.nodes_for("k", 5)) == ["a", "b"]

    def test_minimal_remap_on_add(self):
        keys = [f"shard{i}" for i in range(400)]
        ring = HashRing(["a", "b", "c", "d"])
        before = {k: ring.node_for(k) for k in keys}
        ring.add("e")
        moved = sum(1 for k in keys if ring.node_for(k) != before[k])
        # ideal is 1/5 of keys; allow generous slack over vnode variance
        assert moved / len(keys) < 0.4
        # every moved key landed on the new node
        for k in keys:
            if ring.node_for(k) != before[k]:
                assert ring.node_for(k) == "e"

    def test_remove_restores_prior_owner(self):
        keys = [f"shard{i}" for i in range(200)]
        ring = HashRing(["a", "b", "c"])
        before = {k: ring.node_for(k) for k in keys}
        ring.add("x")
        ring.remove("x")
        assert {k: ring.node_for(k) for k in keys} == before


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_exponential_and_capped(self):
        policy = RetryPolicy(base_us=100.0, multiplier=2.0, cap_us=500.0,
                             jitter=0.0)
        assert policy.backoff_us(0) == 100.0
        assert policy.backoff_us(1) == 200.0
        assert policy.backoff_us(2) == 400.0
        assert policy.backoff_us(3) == 500.0   # capped
        assert policy.backoff_us(10) == 500.0

    def test_server_hint_wins_when_larger(self):
        policy = RetryPolicy(base_us=100.0, jitter=0.0)
        assert policy.backoff_us(0, retry_after_us=5000.0) == 5000.0
        assert policy.backoff_us(0, retry_after_us=10.0) == 100.0

    def test_jitter_is_upward_only(self):
        policy = RetryPolicy(base_us=1000.0, jitter=0.5)
        rng = np.random.default_rng(3)
        waits = [policy.backoff_us(0, rng=rng) for _ in range(100)]
        assert all(1000.0 <= w <= 1500.0 for w in waits)
        assert len(set(waits)) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_us(-1)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(delay_us=-1)
        with pytest.raises(ValueError):
            FaultSpec(drop_prob=1.5)
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.slow(-1)
        with pytest.raises(ValueError):
            inj.corrupt(drop_prob=2.0)

    def test_kill_is_permanent(self):
        inj = FaultInjector()
        inj.kill()
        inj.restore()
        assert inj.killed

    def test_killed_transport_eof_and_send_error(self):
        async def scenario():
            a, b = MemoryTransport.pair()
            inj = FaultInjector()
            faulty = inj.wrap(b)
            inj.kill()
            assert await faulty.recv() is None
            with pytest.raises(ConnectionError):
                await faulty.send({"type": "pong", "id": 1})
        asyncio.run(scenario())

    def test_kill_releases_blocked_recv(self):
        async def scenario():
            a, b = MemoryTransport.pair()
            inj = FaultInjector()
            faulty = inj.wrap(b)
            recv = asyncio.ensure_future(faulty.recv())
            await asyncio.sleep(0.01)
            assert not recv.done()
            inj.kill()
            assert await asyncio.wait_for(recv, 1.0) is None
        asyncio.run(scenario())

    def test_hang_swallows_until_restore(self):
        async def scenario():
            a, b = MemoryTransport.pair()
            inj = FaultInjector()
            faulty = inj.wrap(b)
            inj.hang()
            await faulty.send({"type": "pong", "id": 1})   # swallowed
            assert inj.frames_swallowed == 1
            recv = asyncio.ensure_future(faulty.recv())
            await a.send({"type": "ping", "id": 2})        # swallowed
            await asyncio.sleep(0.02)
            assert not recv.done()
            inj.restore()
            await a.send({"type": "ping", "id": 3})
            message = await asyncio.wait_for(recv, 1.0)
            assert message["id"] == 3
        asyncio.run(scenario())

    def test_slow_delays_sends(self):
        async def scenario():
            a, b = MemoryTransport.pair()
            inj = FaultInjector()
            inj.slow(30_000.0)
            faulty = inj.wrap(b)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await faulty.send({"type": "pong", "id": 1})
            assert loop.time() - t0 >= 0.025
            assert (await a.recv())["id"] == 1
        asyncio.run(scenario())

    def test_drop_and_duplicate_deterministic(self):
        async def scenario():
            a, b = MemoryTransport.pair()
            inj = FaultInjector(FaultSpec(duplicate_prob=1.0, seed=5))
            faulty = inj.wrap(b)
            await faulty.send({"type": "pong", "id": 1})
            assert (await a.recv())["id"] == 1
            assert (await a.recv())["id"] == 1        # the duplicate
            assert inj.frames_duplicated == 1
            inj.corrupt(drop_prob=1.0, duplicate_prob=0.0)
            await faulty.send({"type": "pong", "id": 2})
            assert inj.frames_dropped == 1
        asyncio.run(scenario())


class TestReplica:
    def test_needs_exactly_one_backend(self):
        with pytest.raises(ValueError):
            Replica("r")
        with pytest.raises(ValueError):
            Replica("r", service=DecodeService(),
                    address=("127.0.0.1", 1))

    def test_health_transitions(self):
        replica = Replica("r", service=DecodeService())
        assert replica.state == "up" and replica.available
        replica.mark_suspect()
        assert replica.state == "suspect" and replica.available
        replica.mark_up()
        assert replica.state == "up"
        replica.mark_down()
        assert replica.state == "down" and not replica.available

    def test_health_events_report_ring_transitions(self):
        replica = Replica(
            "r", service=DecodeService(),
            breaker=BreakerPolicy(failure_threshold=MISSES_DOWN,
                                  cooldown_s=60.0),
        )
        assert not replica.record(DecodeOutcome(ok=True))
        assert replica.served == 1 and replica.dispatchable
        for _ in range(MISSES_DOWN - 1):
            assert not replica.record_timeout()
        assert replica.state == "suspect" and replica.dispatchable
        assert replica.record_timeout()         # the miss that confirms
        assert replica.state == "down" and not replica.dispatchable
        assert replica.breaker.state == "open"
        replica.reset("suspect")                # a restarted process
        assert replica.breaker.state == "closed"
        assert replica.heartbeat_misses == 0 and replica.dispatchable
        transitions = [replica.record_ping(True)
                       for _ in range(RECOVERY_PINGS)]
        assert transitions == [None] * (RECOVERY_PINGS - 1) + ["up"]
        assert replica.record_ping(True) == "up"
        pings = [replica.record_ping(False) for _ in range(MISSES_DOWN)]
        assert pings == [None] * (MISSES_DOWN - 1) + ["down"]
        assert replica.record_dead() and replica.failed == MISSES_DOWN + 1


# ----------------------------------------------------------------------
# Routing, failover, fallback
# ----------------------------------------------------------------------
class TestClusterRouting:
    def test_decode_matches_direct_batch(self):
        syndromes = make_syndromes(3, "z", 24, seed=31)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=3, policy=fast_policy(),
                                    seed=0)
            outcome = await cluster.decode(SHARD, syndromes)
            await cluster.close()
            return outcome

        outcome = asyncio.run(scenario())
        assert outcome.ok and outcome.metadata["fallback"] is False
        assert np.array_equal(outcome.corrections, expected.corrections)

    def test_idle_cluster_serves_from_ring_primary(self):
        syndromes = make_syndromes(3, "z", 4, seed=32)

        async def scenario():
            cluster = DecodeCluster(n_replicas=3, policy=fast_policy(),
                                    seed=0)
            primary = cluster.primary_for(SHARD)
            outcome = await cluster.decode(SHARD, syndromes)
            await cluster.close()
            return primary.name, outcome.metadata["replica"]

        primary, served_by = asyncio.run(scenario())
        assert served_by == primary

    def test_failover_after_kill_is_bit_identical(self):
        syndromes = make_syndromes(3, "z", 16, seed=33)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=3, policy=fast_policy(),
                                    seed=0)
            before = await cluster.decode(SHARD, syndromes)
            primary = cluster.primary_for(SHARD)
            await primary.kill()
            after = await cluster.decode(SHARD, syndromes)
            await cluster.close()
            return before, after, primary.name

        before, after, killed = asyncio.run(scenario())
        assert before.ok and after.ok
        assert before.metadata["replica"] == killed
        assert after.metadata["replica"] != killed
        assert np.array_equal(after.corrections, expected.corrections)

    def test_kill_mid_request_fails_over(self):
        """A replica dying *under* an in-flight request re-dispatches it."""
        syndromes = make_syndromes(3, "z", 8, seed=34)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=2, policy=fast_policy(),
                                    seed=0)
            primary = cluster.primary_for(SHARD)
            # wedge the primary so the request parks on it, then kill it
            primary.injector.hang()
            task = asyncio.ensure_future(cluster.decode(SHARD, syndromes))
            await asyncio.sleep(0.05)
            assert not task.done()
            await primary.kill()
            outcome = await asyncio.wait_for(task, 5.0)
            stats = cluster.stats()
            await cluster.close()
            return outcome, stats

        outcome, stats = asyncio.run(scenario())
        assert outcome.ok
        assert outcome.metadata["failovers"] >= 1
        assert stats["failovers"] >= 1 and stats["lost"] == 0
        assert np.array_equal(outcome.corrections, expected.corrections)

    def test_fallback_when_all_replicas_dead(self):
        syndromes = make_syndromes(3, "z", 12, seed=35)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=2, policy=fast_policy(),
                                    seed=0)
            for replica in cluster.replicas:
                await replica.kill()
            outcome = await cluster.decode(SHARD, syndromes)
            stats = cluster.stats()
            await cluster.close()
            return outcome, stats

        outcome, stats = asyncio.run(scenario())
        assert outcome.ok and outcome.metadata["fallback"] is True
        assert stats["fallback_decodes"] == 1 and stats["lost"] == 0
        assert np.array_equal(outcome.corrections, expected.corrections)

    def test_fallback_disabled_reports_unavailable(self):
        syndromes = make_syndromes(3, "z", 4, seed=36)

        async def scenario():
            cluster = DecodeCluster(
                n_replicas=1, policy=fast_policy(fallback=False), seed=0
            )
            await cluster.replicas[0].kill()
            outcome = await cluster.decode(SHARD, syndromes)
            stats = cluster.stats()
            await cluster.close()
            return outcome, stats

        outcome, stats = asyncio.run(scenario())
        assert not outcome.ok and outcome.reason == "unavailable"
        assert stats["lost"] == 1

    def test_heartbeat_demotes_hung_replica(self):
        async def scenario():
            cluster = DecodeCluster(n_replicas=2, policy=fast_policy(),
                                    seed=0)
            await cluster.start()
            victim = cluster.primary_for(SHARD)
            # establish the heartbeat connection, then wedge the replica
            await victim.heartbeat(0.5)
            victim.injector.hang()
            for _ in range(200):
                await asyncio.sleep(0.02)
                if victim.state == "down":
                    break
            state = victim.state
            routed = victim.name in cluster._ring
            await cluster.close()
            return state, routed

        state, routed = asyncio.run(scenario())
        assert state == "down" and not routed

    def test_close_ends_heartbeat_loop_after_a_swallowed_cancel(
            self, monkeypatch):
        """Before Python 3.12, ``asyncio.wait_for`` returns a ping reply
        that lands together with a cancel instead of raising, so the
        heartbeat task survives ``close()``'s one cancel; the loop must
        still end and ``close()`` return."""
        async def scenario():
            cluster = DecodeCluster(n_replicas=1, policy=fast_policy(),
                                    seed=0)
            replica = cluster.replicas[0]
            pinging = asyncio.Event()
            swallowed = []

            async def heartbeat(timeout_s):
                pinging.set()
                try:
                    await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    if swallowed:
                        raise
                    swallowed.append(True)   # the reply won the race
                return 0.0

            monkeypatch.setattr(replica, "heartbeat", heartbeat)
            await cluster.start()
            await pinging.wait()
            closing = asyncio.ensure_future(cluster.close())
            done, _ = await asyncio.wait({closing}, timeout=2.0)
            if not done:
                closing.cancel()
            return bool(done), bool(swallowed)

        closed, swallowed = asyncio.run(scenario())
        assert swallowed
        assert closed, "close() hung on the heartbeat loop"

    def test_revive_restores_routing(self):
        async def scenario():
            cluster = DecodeCluster(n_replicas=2, policy=fast_policy(),
                                    seed=0)
            victim = cluster.replicas[0]
            victim.mark_down()
            cluster._retire_from_ring(victim.name)
            cluster.revive(victim.name)
            ok = victim.state == "up" and victim.name in cluster._ring
            # a killed replica must stay dead
            await cluster.replicas[1].kill()
            try:
                cluster.revive(cluster.replicas[1].name)
                revived_dead = True
            except ValueError:
                revived_dead = False
            await cluster.close()
            return ok, revived_dead

        ok, revived_dead = asyncio.run(scenario())
        assert ok and not revived_dead

    def test_duplicate_reply_frames_absorbed(self):
        """Reply-frame duplication never delivers two corrections."""
        syndromes = make_syndromes(3, "z", 6, seed=37)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=2, policy=fast_policy(),
                                    seed=0)
            primary = cluster.primary_for(SHARD)
            primary.injector.corrupt(duplicate_prob=1.0)
            outcomes = [await cluster.decode(SHARD, syndromes)
                        for _ in range(5)]
            # let the duplicated frames land and be counted
            await asyncio.sleep(0.05)
            stats = cluster.stats()
            await cluster.close()
            return outcomes, stats

        outcomes, stats = asyncio.run(scenario())
        assert all(o.ok for o in outcomes)
        assert stats["duplicate_replies"] >= 4
        for outcome in outcomes:
            assert np.array_equal(outcome.corrections, expected.corrections)


# ----------------------------------------------------------------------
# Autoscaling (decision logic is pure; ticks driven by hand)
# ----------------------------------------------------------------------
class TestAutoscale:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(f_low=0.9, f_high=0.5)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_replicas=3, max_replicas=2)

    def test_decide_up_on_hot_f_ratio(self):
        policy = AutoscalePolicy(f_high=0.9, f_low=0.3, max_replicas=4)
        assert policy.decide(0.95, 0, 2) == "up"
        assert policy.decide(0.95, 0, 4) is None     # at max
        assert policy.decide(0.5, 0, 2) is None      # warm, not hot

    def test_decide_up_on_rejections(self):
        policy = AutoscalePolicy()
        assert policy.decide(None, 3, 1) == "up"

    def test_decide_down_only_when_cold_and_quiet(self):
        policy = AutoscalePolicy(f_high=0.9, f_low=0.3, min_replicas=1)
        assert policy.decide(0.1, 0, 2) == "down"
        assert policy.decide(None, 0, 2) == "down"
        assert policy.decide(0.1, 1, 2) == "up"      # rejects -> grow
        assert policy.decide(0.1, 0, 1) is None      # at min

    def test_tick_scales_up_on_rejections(self):
        async def scenario():
            cluster = DecodeCluster(
                n_replicas=1,
                policy=fast_policy(
                    autoscale=AutoscalePolicy(cooldown_s=0.0)
                ),
                seed=0,
            )
            cluster._rejects_last_tick = 5
            decision = await cluster.autoscale_tick()
            n_after = len(cluster.replicas)
            stats = cluster.stats()
            await cluster.close()
            return decision, n_after, stats

        decision, n_after, stats = asyncio.run(scenario())
        assert decision == "up" and n_after == 2
        assert stats["scale_ups"] == 1

    def test_tick_scales_down_cold_fleet(self):
        async def scenario():
            cluster = DecodeCluster(
                n_replicas=3,
                policy=fast_policy(
                    autoscale=AutoscalePolicy(cooldown_s=0.0,
                                              min_replicas=1)
                ),
                seed=0,
            )
            decision = await cluster.autoscale_tick()
            up = len(cluster.up_replicas())
            ring = len(cluster._ring)
            stats = cluster.stats()
            await cluster.close()
            return decision, up, ring, stats

        decision, up, ring, stats = asyncio.run(scenario())
        assert decision == "down" and up == 2 and ring == 2
        assert stats["scale_downs"] == 1

    def test_cooldown_suppresses_thrash(self):
        async def scenario():
            cluster = DecodeCluster(
                n_replicas=1,
                policy=fast_policy(
                    autoscale=AutoscalePolicy(cooldown_s=60.0)
                ),
                seed=0,
            )
            cluster._rejects_last_tick = 5
            first = await cluster.autoscale_tick()     # scales up
            cluster._rejects_last_tick = 5
            second = await cluster.autoscale_tick()    # inside cooldown
            await cluster.close()
            return first, second

        first, second = asyncio.run(scenario())
        assert first == "up" and second is None

    def test_scaled_up_replica_serves(self):
        syndromes = make_syndromes(3, "z", 8, seed=38)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(
                n_replicas=1,
                policy=fast_policy(
                    autoscale=AutoscalePolicy(cooldown_s=0.0)
                ),
                seed=0,
            )
            cluster._rejects_last_tick = 1
            await cluster.autoscale_tick()
            # kill the original; the scaled-up replica must carry alone
            await cluster.replicas[0].kill()
            outcome = await cluster.decode(SHARD, syndromes)
            await cluster.close()
            return outcome

        outcome = asyncio.run(scenario())
        assert outcome.ok and outcome.metadata["fallback"] is False
        assert np.array_equal(outcome.corrections, expected.corrections)


# ----------------------------------------------------------------------
# Wire facade
# ----------------------------------------------------------------------
class TestClusterFrontend:
    def test_decode_via_frontend_matches_direct(self):
        syndromes = make_syndromes(3, "z", 10, seed=39)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=2, policy=fast_policy(),
                                    seed=0)
            frontend = ClusterFrontend(cluster)
            client = frontend.connect_client()
            outcome = await client.decode(SHARD, syndromes)
            stats = await client.stats()
            latency = await client.ping(1.0)
            await client.close()
            await frontend.close()
            await cluster.close()
            return outcome, stats, latency

        outcome, stats, latency = asyncio.run(scenario())
        assert outcome.ok
        assert np.array_equal(outcome.corrections, expected.corrections)
        assert stats["requests"] >= 1 and latency >= 0

    @pytest.mark.parametrize("case", [
        "unknown_decoder", "distance_over_cap", "wrong_width",
        "one_d_syndromes", "zero_shots",
    ])
    def test_frontend_validates_like_a_server(self, case):
        """The frontend runs the server's own admission checks: a bad
        request gets the identical error text from either."""
        width = make_syndromes(3, "z", 1, seed=38).shape[1]
        shard, syndromes = {
            "unknown_decoder": (ShardKey("nope", 3, "z"),
                                np.zeros((2, width))),
            "distance_over_cap": (ShardKey("unionfind", MAX_DISTANCE + 2),
                                  np.zeros((2, width))),
            "wrong_width": (SHARD, np.zeros((2, 3))),
            "one_d_syndromes": (SHARD, np.zeros(width)),
            "zero_shots": (SHARD, np.zeros((0, width))),
        }[case]
        message = decode_request(1, shard, np.zeros((1, width)))
        message["syndromes"] = pack_bitmap(syndromes)

        async def reply_of(transport):
            await transport.send(dict(message))
            reply = await transport.recv()
            await transport.close()
            return reply

        async def scenario():
            service = DecodeService()
            served = await reply_of(service.connect())
            cluster = DecodeCluster(n_replicas=1, policy=fast_policy(),
                                    seed=0)
            frontend = ClusterFrontend(cluster)
            fronted = await reply_of(frontend.connect())
            await frontend.close()
            await cluster.close()
            await service.close()
            return served, fronted

        served, fronted = asyncio.run(scenario())
        assert served["type"] == fronted["type"] == "error"
        assert fronted["message"] == served["message"]

    def test_frontend_over_tcp(self):
        syndromes = make_syndromes(3, "z", 6, seed=40)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            from repro.service import DecodeClient
            cluster = DecodeCluster(n_replicas=2, policy=fast_policy(),
                                    seed=0)
            frontend = ClusterFrontend(cluster)
            host, port = await frontend.start_tcp()
            client = await DecodeClient.connect_tcp(host, port)
            outcome = await client.decode(SHARD, syndromes)
            await client.close()
            await frontend.close()
            await cluster.close()
            return outcome

        outcome = asyncio.run(scenario())
        assert outcome.ok
        assert np.array_equal(outcome.corrections, expected.corrections)


# ----------------------------------------------------------------------
# Membership churn (ring + router edge cases)
# ----------------------------------------------------------------------
class TestHashRingChurn:
    def test_remove_then_readd_same_name_restores_mapping(self):
        """Vnode positions are a pure function of the name: a replica
        that leaves and comes back owns exactly what it owned before."""
        keys = [f"shard{i}" for i in range(200)]
        ring = HashRing(["a", "b", "c"])
        before = {k: ring.nodes_for(k, 2) for k in keys}
        ring.remove("b")
        ring.add("b")
        assert {k: ring.nodes_for(k, 2) for k in keys} == before

    def test_single_replica_ring_owns_everything(self):
        ring = HashRing(["only"])
        for i in range(20):
            assert ring.node_for(f"k{i}") == "only"
            assert ring.nodes_for(f"k{i}", 3) == ["only"]

    def test_replication_beyond_live_replicas(self):
        """replication > fleet size: the preference list saturates at
        the live membership and dispatch still works."""
        syndromes = make_syndromes(3, "z", 4, seed=45)

        async def scenario():
            cluster = DecodeCluster(
                n_replicas=2, policy=fast_policy(replication=5), seed=0
            )
            preferred = [r.name for r in cluster.preference_list(SHARD)]
            outcome = await cluster.decode(SHARD, syndromes)
            await cluster.close()
            return preferred, outcome

        preferred, outcome = asyncio.run(scenario())
        assert sorted(preferred) == ["r0", "r1"]
        assert outcome.ok and outcome.metadata["fallback"] is False

    def test_single_replica_cluster_serves(self):
        syndromes = make_syndromes(3, "z", 4, seed=46)

        async def scenario():
            cluster = DecodeCluster(n_replicas=1, policy=fast_policy(),
                                    seed=0)
            preferred = [r.name for r in cluster.preference_list(SHARD)]
            outcome = await cluster.decode(SHARD, syndromes)
            await cluster.close()
            return preferred, outcome

        preferred, outcome = asyncio.run(scenario())
        assert preferred == ["r0"] and outcome.ok

    def test_retiring_a_replica_purges_stale_overrides(self):
        """A migration-installed override must not keep routing to a
        replica that has since left the fleet."""
        async def scenario():
            cluster = DecodeCluster(n_replicas=3, policy=fast_policy(),
                                    seed=0)
            old_primary = cluster.primary_for(SHARD).name
            target = next(r.name for r in cluster.replicas
                          if r.name != old_primary)
            cluster._install_override(SHARD, target)
            assert cluster.primary_for(SHARD).name == target
            cluster._retire_from_ring(target)
            fallback_primary = cluster.primary_for(SHARD).name
            overrides = dict(cluster._shard_overrides)
            await cluster.close()
            return target, fallback_primary, overrides

        target, fallback_primary, overrides = asyncio.run(scenario())
        assert fallback_primary != target
        for names in overrides.values():
            assert target not in names


# ----------------------------------------------------------------------
# Heartbeat flap damping
# ----------------------------------------------------------------------
class TestFlapDamping:
    def test_suspect_needs_consecutive_ping_streak(self):
        replica = Replica("r", service=DecodeService())
        replica.mark_suspect()
        replica.on_ping_ok()
        replica.on_ping_ok()
        assert replica.state == "suspect"       # 2 of 3: not yet
        replica.on_ping_ok()
        assert replica.state == "up"

    def test_miss_resets_the_streak(self):
        replica = Replica("r", service=DecodeService())
        replica.mark_suspect()
        replica.on_ping_ok()
        replica.on_ping_ok()
        replica.mark_suspect()                  # a miss mid-recovery
        assert replica.recovery_streak == 0
        replica.on_ping_ok()
        assert replica.state == "suspect"       # streak restarts at 1

    def test_up_replica_ignores_streak_bookkeeping(self):
        replica = Replica("r", service=DecodeService())
        replica.on_ping_ok()
        assert replica.state == "up" and replica.recovery_streak == 0

    def test_dispatch_prefers_up_over_suspect(self):
        """The dispatch half of flap damping: a recovering suspect only
        gets traffic when no confirmed-up replica can take it."""
        async def scenario():
            cluster = DecodeCluster(n_replicas=2, policy=fast_policy(),
                                    seed=0)
            primary = cluster.primary_for(SHARD)
            other = next(r for r in cluster.replicas
                         if r.name != primary.name)
            primary.mark_suspect()
            picked_with_up = cluster._pick(SHARD)
            other.mark_suspect()
            picked_all_suspect = cluster._pick(SHARD)
            await cluster.close()
            return (primary.name, other.name,
                    picked_with_up.name, picked_all_suspect.name)

        primary, other, with_up, all_suspect = asyncio.run(scenario())
        assert with_up == other                 # the UP replica wins
        assert all_suspect == primary           # preference order returns

    def test_heartbeat_loop_promotes_after_streak(self):
        """End to end: a suspect earns its way back to ``up`` (and into
        the ring) after ``RECOVERY_PINGS`` healthy heartbeats."""
        async def scenario():
            cluster = DecodeCluster(
                n_replicas=2,
                policy=fast_policy(), seed=0,
            )
            await cluster.start()
            victim = cluster.replicas[0]
            victim.mark_suspect()
            cluster._retire_from_ring(victim.name)
            for _ in range(200):
                await asyncio.sleep(0.02)
                if victim.state == "up":
                    break
            state = victim.state
            streaked = victim.recovery_streak
            in_ring = victim.name in cluster._ring
            await cluster.close()
            return state, streaked, in_ring

        state, streaked, in_ring = asyncio.run(scenario())
        assert state == "up" and in_ring
        assert streaked >= 2
