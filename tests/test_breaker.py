"""Circuit breakers and the retry-storm guard.

A breaker converts "this target keeps failing" into fast local
failure: retry loops stop burning attempts against a saturated fleet
(bounding ``mean_attempts``), and the cluster router stops dialing a
replica whose breaker is open.  The retry budget is the second guard:
even with huge server hints, one request stops retrying once it has
slept its whole budget.
"""

import asyncio

import numpy as np
import pytest

from repro.service import (
    BatchPolicy,
    BreakerPolicy,
    CircuitBreaker,
    DecodeClient,
    DecodeService,
    RetryPolicy,
    ShardKey,
)
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.service.client import DecodeOutcome
from repro.service.cluster import ClusterPolicy, DecodeCluster
from repro.service.protocol import MemoryTransport, reject_reply

from test_service import direct_batch, make_syndromes


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestBreakerStateMachine:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerPolicy(cooldown_s=-1)

    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=3), clock=FakeClock()
        )
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()        # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 1
        assert not breaker.allow()
        assert breaker.fast_fails == 1

    def test_cooldown_then_half_open_probe_budget(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, cooldown_s=1.0),
            clock=clock,
        )
        breaker.record_failure()
        assert breaker.state == OPEN and not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()          # the single half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()      # probe budget spent
        breaker.record_success()        # probe came back; 1 of 2
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        breaker.record_success()        # 2 of 2: closed again
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, cooldown_s=1.0),
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()        # the probe failed
        assert breaker.state == OPEN and breaker.opens == 2
        clock.advance(0.5)
        assert not breaker.allow()      # cooldown restarted at the trip
        clock.advance(0.5)
        assert breaker.allow()

    def test_would_allow_is_non_mutating(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, cooldown_s=1.0),
            clock=clock,
        )
        breaker.record_failure()
        assert not breaker.would_allow()
        assert breaker.fast_fails == 0          # previews are free
        clock.advance(1.0)
        # previewing an expired cooldown neither transitions the state
        # nor spends the probe slot, no matter how often it's asked
        for _ in range(10):
            assert breaker.would_allow()
        assert breaker.state == OPEN
        assert breaker.allow()                  # the real call transitions
        assert breaker.state == HALF_OPEN
        assert not breaker.would_allow()        # probe slot now in use
        assert breaker.fast_fails == 0

    @pytest.mark.parametrize("reason,counts", [
        ("ok", "success"), ("migrated", "success"),
        ("backpressure", "failure"), ("quota", "failure"),
        ("deadline", "failure"), ("draining", "failure"),
        ("error", "failure"), ("too_large", None),
    ])
    def test_one_outcome_rule(self, reason, counts):
        """``record(outcome)`` is the one rule both the router and the
        retrying client use to count a reply toward the trip."""
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
        breaker.record_failure()
        outcome = (DecodeOutcome(ok=True) if reason == "ok"
                   else DecodeOutcome(ok=False, reason=reason))
        breaker.record(outcome)
        assert breaker.snapshot()["consecutive_failures"] == {
            "success": 0, "failure": 2, None: 1,
        }[counts]

    def test_snapshot(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2))
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["consecutive_failures"] == 1


class TestRetryStormGuard:
    def test_jitter_is_upward_only_and_bounded(self):
        policy = RetryPolicy(base_us=1000.0, jitter=0.2)
        rng = np.random.default_rng(7)
        for attempt in range(3):
            base = min(1000.0 * 2.0 ** attempt, policy.cap_us)
            for _ in range(50):
                wait = policy.backoff_us(attempt, 0.0, rng)
                assert base <= wait < base * 1.2

    def test_server_hint_wins_when_larger(self):
        policy = RetryPolicy(base_us=1000.0, jitter=0.0)
        assert policy.backoff_us(0, 50_000.0) == 50_000.0
        assert policy.backoff_us(0, 10.0) == 1000.0

    def test_budget_caps_total_backoff(self):
        """Huge server hints can't make one request retry forever."""
        syndromes = make_syndromes(3, "z", 1, seed=41)

        async def scenario():
            # a queue that is full and (with no decode throughput yet)
            # hands out the default retry hint on every rejection
            service = DecodeService(
                policy=BatchPolicy(
                    max_batch=10_000, max_wait_us=500_000.0,
                    max_queue_shots=8,
                    default_retry_after_us=500_000.0,
                ),
            )
            client = DecodeClient.connect_inprocess(service)
            shard = ShardKey("greedy", 3, "z")
            filler = asyncio.ensure_future(
                client.decode(shard, make_syndromes(3, "z", 8, seed=42))
            )
            await asyncio.sleep(0.01)       # filler is queued
            outcome = await client.decode_with_retry(
                shard, syndromes,
                policy=RetryPolicy(max_attempts=10, base_us=100.0,
                                   jitter=0.0, budget_us=1000.0),
            )
            await service.close()        # drains: the filler is replied
            await filler
            await client.close()
            return outcome

        outcome = asyncio.run(scenario())
        assert not outcome.ok and outcome.reason == "backpressure"
        # the 500 ms hint blows the 1 ms budget on the first rejection:
        # exactly one attempt, no sleep
        assert outcome.metadata["attempts"] == 1

    def test_breaker_bounds_attempts_during_saturation(self):
        """Fleet saturated + shared breaker: later requests fail fast
        with zero wire attempts, so mean_attempts stays bounded."""
        async def scenario():
            service = DecodeService(
                policy=BatchPolicy(
                    max_batch=10_000, max_wait_us=500_000.0,
                    max_queue_shots=8,
                ),
            )
            client = DecodeClient.connect_inprocess(service)
            shard = ShardKey("greedy", 3, "z")
            filler = asyncio.ensure_future(
                client.decode(shard, make_syndromes(3, "z", 8, seed=43))
            )
            await asyncio.sleep(0.01)
            breaker = CircuitBreaker(
                BreakerPolicy(failure_threshold=1, cooldown_s=60.0)
            )
            retry = RetryPolicy(max_attempts=5, base_us=50.0, jitter=0.0)
            outcomes = []
            for _ in range(6):
                outcomes.append(await client.decode_with_retry(
                    shard, make_syndromes(3, "z", 1, seed=44),
                    policy=retry, breaker=breaker,
                ))
            await service.close()        # drains: the filler is replied
            await filler
            await client.close()
            return outcomes, breaker

        outcomes, breaker = asyncio.run(scenario())
        # first request trips the breaker on its first rejection...
        assert outcomes[0].reason == "backpressure"
        assert outcomes[0].metadata["attempts"] == 1
        # ...and the rest never touch the wire
        for outcome in outcomes[1:]:
            assert outcome.reason == "breaker_open"
            assert outcome.metadata["attempts"] == 0
        attempts = [o.metadata["attempts"] for o in outcomes]
        assert sum(attempts) / len(attempts) <= 2.0
        assert breaker.state == OPEN

    def test_migrated_reply_does_not_open_a_client_breaker(self):
        """A ``migrated`` rejection means the shard moved, not that the
        target is sick: the client counts it like the router does."""
        async def scenario():
            client_end, server_end = MemoryTransport.pair()
            client = DecodeClient(client_end)

            async def migrating_server():
                message = await server_end.recv()
                await server_end.send(
                    reject_reply(message["id"], "migrated", 0.0, 0)
                )

            server = asyncio.ensure_future(migrating_server())
            breaker = CircuitBreaker(
                BreakerPolicy(failure_threshold=1, cooldown_s=60.0)
            )
            outcome = await client.decode_with_retry(
                ShardKey("greedy", 3, "z"),
                make_syndromes(3, "z", 1, seed=47),
                policy=RetryPolicy(max_attempts=1), breaker=breaker,
            )
            await server
            await client.close()
            return outcome, breaker

        outcome, breaker = asyncio.run(scenario())
        assert outcome.reason == "migrated"
        assert breaker.state == CLOSED


class TestRouterBreaker:
    def test_open_breaker_stops_dialing_a_sick_replica(self):
        syndromes = make_syndromes(3, "z", 6, seed=45)
        expected = direct_batch("unionfind", 3, "z", syndromes)
        shard = ShardKey("unionfind", 3, "z")

        async def scenario():
            cluster = DecodeCluster(
                n_replicas=2,
                policy=ClusterPolicy(
                    request_timeout_s=0.15,
                    retry=RetryPolicy(max_attempts=4, base_us=200.0,
                                      jitter=0.0),
                    breaker=BreakerPolicy(failure_threshold=1,
                                          cooldown_s=60.0),
                ),
                seed=0,
            )
            primary = cluster.primary_for(shard)
            primary.injector.hang()
            first = await cluster.decode(shard, syndromes)
            second = await cluster.decode(shard, syndromes)
            snap = primary.breaker.snapshot()
            stats = cluster.stats()
            await cluster.close()
            return first, second, snap, stats, primary.name

        first, second, snap, stats, sick = asyncio.run(scenario())
        # first request times out on the sick primary, fails over, and
        # trips that replica's breaker
        assert first.ok and first.metadata["replica"] != sick
        assert snap["state"] == OPEN
        assert stats["timeouts"] >= 1
        # second request never dials the sick replica: one attempt,
        # straight to the healthy one
        assert second.ok and second.metadata["replica"] != sick
        assert second.metadata["attempts"] == 1
        assert np.array_equal(second.corrections, expected.corrections)

    def test_all_breakers_open_falls_back_locally(self):
        syndromes = make_syndromes(3, "z", 4, seed=46)
        expected = direct_batch("unionfind", 3, "z", syndromes)
        shard = ShardKey("unionfind", 3, "z")

        async def scenario():
            cluster = DecodeCluster(
                n_replicas=2,
                policy=ClusterPolicy(
                    request_timeout_s=0.5,
                    retry=RetryPolicy(max_attempts=2, base_us=100.0,
                                      jitter=0.0),
                    breaker=BreakerPolicy(failure_threshold=1,
                                          cooldown_s=60.0),
                ),
                seed=0,
            )
            for replica in cluster.replicas:
                replica.breaker.record_failure()     # force all open
            outcome = await cluster.decode(shard, syndromes)
            stats = cluster.stats()
            await cluster.close()
            return outcome, stats

        outcome, stats = asyncio.run(scenario())
        # open breakers promise fast local failure; the router keeps
        # its no-lost-corrections contract via the local fallback
        assert outcome.ok and outcome.metadata["fallback"] is True
        assert stats["fallback_decodes"] >= 1
        assert np.array_equal(outcome.corrections, expected.corrections)

    def test_revive_closes_an_open_breaker(self):
        """A revived replica is dispatchable again: revive forgets the
        breaker's failure history along with the heartbeat misses."""
        shard = ShardKey("unionfind", 3, "z")

        async def scenario():
            cluster = DecodeCluster(
                n_replicas=1,
                policy=ClusterPolicy(
                    breaker=BreakerPolicy(failure_threshold=1,
                                          cooldown_s=60.0),
                ),
                seed=0,
            )
            replica = cluster.replicas[0]
            replica.breaker.record_failure()
            replica.mark_down()
            cluster._retire_from_ring(replica.name)
            cluster.revive(replica.name)
            picked = cluster._pick(shard)
            await cluster.close()
            return replica, picked

        replica, picked = asyncio.run(scenario())
        assert replica.state == "up" and replica.breaker.state == CLOSED
        assert picked is replica
