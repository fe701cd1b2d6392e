"""Live shard migration: dual-write, atomic flip, handoff, no drain gap.

The contract under test: ownership of a shard moves to another replica
while requests keep flowing — the dual-write window serves every
request exactly once, the flip is a single preference-override install
that leaves failover depth intact, queued-but-undecoded work is
extracted from the source (its callers re-dispatch on a transient
``migrated`` rejection with no backoff) and handed to the target in a
``handoff`` frame, and scale-down routes through this path instead of
``drain_and_stop`` — zero lost, zero duplicates, golden bits.
"""

import asyncio

import numpy as np
import pytest

from repro.service import (
    BatchPolicy,
    DecodeService,
    DecoderPool,
    RetryPolicy,
    ShardKey,
    ThrottledFactory,
)
from repro.service.cluster import (
    ChaosEvent,
    ClusterPolicy,
    DecodeCluster,
    RequestJournal,
    ShardMigration,
    run_chaos_load,
)
from repro.service.loadgen import poisson_trace

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


def throttled_service(delay_s: float = 0.08) -> DecodeService:
    """A server whose decodes take ``delay_s`` — so work queues."""
    return DecodeService(
        pool=DecoderPool(factory=ThrottledFactory(delay_s)),
        policy=BatchPolicy(max_batch=4, max_wait_us=0.0),
    )


class TestShardMigrationValidation:
    def test_source_equals_target_rejected(self):
        async def scenario():
            cluster = DecodeCluster(n_replicas=2, policy=fast_policy(),
                                    seed=0)
            replica = cluster.replicas[0]
            with pytest.raises(ValueError):
                ShardMigration(cluster, SHARD, replica, replica, 0.0)
            with pytest.raises(ValueError):
                ShardMigration(cluster, SHARD, replica,
                               cluster.replicas[1], -1.0)
            await cluster.close()

        asyncio.run(scenario())

    def test_migrate_to_current_owner_rejected(self):
        async def scenario():
            cluster = DecodeCluster(n_replicas=2, policy=fast_policy(),
                                    seed=0)
            owner = cluster.primary_for(SHARD)
            with pytest.raises(ValueError):
                await cluster.migrate(SHARD, owner.name)
            await cluster.close()

        asyncio.run(scenario())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ClusterPolicy(migration_catchup_s=-0.1)


class TestMigrationFlip:
    def test_ownership_moves_and_stays_golden(self):
        syndromes = make_syndromes(3, "z", 12, seed=70)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=3, policy=fast_policy(),
                                    seed=0)
            source = cluster.primary_for(SHARD)
            target = next(r for r in cluster.replicas
                          if r.name != source.name)
            before = await cluster.decode(SHARD, syndromes)
            report = await cluster.migrate(SHARD, target.name,
                                           catchup_s=0.0)
            after = await cluster.decode(SHARD, syndromes)
            new_primary = cluster.primary_for(SHARD).name
            stats = cluster.stats()
            await cluster.close()
            return before, after, report, new_primary, stats, target.name

        before, after, report, new_primary, stats, target = (
            asyncio.run(scenario())
        )
        assert before.ok and after.ok
        assert report.source != report.target == target
        assert new_primary == target
        assert after.metadata["replica"] == target
        assert np.array_equal(after.corrections, expected.corrections)
        assert stats["migrations"] == 1
        assert stats["shard_overrides"][SHARD.wire()][0] == target

    def test_dual_write_window_serves_exactly_once(self):
        """Requests landing inside the catch-up window go to both
        owners; exactly one correction comes back, bit-golden."""
        syndromes = make_syndromes(3, "z", 8, seed=71)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=3, policy=fast_policy(),
                                    seed=0)
            source = cluster.primary_for(SHARD)
            target = next(r for r in cluster.replicas
                          if r.name != source.name)
            migration_task = asyncio.ensure_future(
                cluster.migrate(SHARD, target.name, catchup_s=0.2)
            )
            await asyncio.sleep(0.05)        # inside the window
            outcomes = await asyncio.gather(
                *(cluster.decode(SHARD, syndromes) for _ in range(4))
            )
            report = await migration_task
            stats = cluster.stats()
            await cluster.close()
            return outcomes, report, stats

        outcomes, report, stats = asyncio.run(scenario())
        assert all(o.ok for o in outcomes)
        for outcome in outcomes:
            assert np.array_equal(outcome.corrections,
                                  expected.corrections)
            assert outcome.metadata.get("dual_write") is True
        assert report.dual_requests >= 4
        assert stats["dual_writes"] >= 4
        # both legs answered at least once: redundant replies absorbed
        assert stats["dual_absorbed"] >= 1

    def test_preference_list_stable_across_flip(self):
        """The flip promotes the target; the displaced names stay
        behind it, so failover depth survives unchanged."""
        async def scenario():
            cluster = DecodeCluster(
                n_replicas=4, policy=fast_policy(replication=3), seed=0
            )
            before = [r.name for r in cluster.preference_list(SHARD)]
            target = next(r.name for r in cluster.replicas
                          if r.name not in before)
            cluster._install_override(SHARD, target)
            after = [r.name for r in cluster.preference_list(SHARD)]
            await cluster.close()
            return before, after, target

        before, after, target = asyncio.run(scenario())
        assert len(before) == len(after) == 3
        assert after[0] == target
        # the old primary and secondary slid back one slot, in order
        assert after[1:] == before[:2]


class TestHandoff:
    def test_queued_work_extracted_and_decoded_by_target(self):
        """Wedge the source with a slow decoder so work queues, migrate,
        and check the queued payloads were handed to the target while
        their callers re-dispatched on the ``migrated`` rejection."""
        syndromes = make_syndromes(3, "z", 4, seed=72)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(
                n_replicas=2, policy=fast_policy(),
                service_factory=throttled_service, seed=0,
            )
            source = cluster.primary_for(SHARD)
            target = next(r for r in cluster.replicas
                          if r.name != source.name)
            # saturate the source: first batch decodes for ~80 ms while
            # the rest sit queued-but-undecoded
            tasks = [
                asyncio.ensure_future(cluster.decode(SHARD, syndromes))
                for _ in range(6)
            ]
            await asyncio.sleep(0.03)
            report = await cluster.migrate(SHARD, target.name,
                                           catchup_s=0.0)
            outcomes = await asyncio.gather(*tasks)
            stats = cluster.stats()
            await cluster.close()
            return report, outcomes, stats

        report, outcomes, stats = asyncio.run(scenario())
        # queued work was transferred in the handoff frame...
        assert report.handoff_entries >= 1
        assert report.handoff_decoded == report.handoff_entries
        assert stats["handoff_entries"] >= 1
        # ...and the extracted callers re-dispatched without loss
        assert stats["migrated_retries"] >= 1
        assert all(o.ok for o in outcomes)
        for outcome in outcomes:
            assert np.array_equal(outcome.corrections,
                                  expected.corrections)

    def test_handoff_frames_roundtrip_at_the_server(self):
        """The wire surface: extract on an idle shard is empty; a
        handoff frame decodes its entries golden-identically."""
        from repro.service.protocol import handoff_entry

        syndromes = make_syndromes(3, "z", 5, seed=73)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            from repro.service import DecodeClient
            service = DecodeService()
            client = DecodeClient(service.connect())
            empty = await client.handoff_extract(SHARD)
            results = await client.handoff(
                SHARD, [handoff_entry(0, syndromes)]
            )
            await client.close()
            await service.close()
            return empty, results

        empty, results = asyncio.run(scenario())
        assert empty == []
        assert len(results) == 1
        assert results[0]["rid"] == 0 and results[0]["status"] == "ok"
        from repro.service.protocol import unpack_bitmap
        corrections = unpack_bitmap(results[0]["corrections"])
        assert np.array_equal(corrections, expected.corrections)


class TestDecommission:
    def test_scale_down_migrates_instead_of_draining(self):
        """Removing a replica live-migrates its shards first; the
        victim stops with empty queues and requests keep landing on
        replicas, not the local fallback."""
        syndromes = make_syndromes(3, "z", 6, seed=74)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=3, policy=fast_policy(),
                                    seed=0)
            await cluster.decode(SHARD, syndromes)
            victim = cluster.primary_for(SHARD)
            reports = await cluster.decommission(victim.name)
            after = await cluster.decode(SHARD, syndromes)
            stats = cluster.stats()
            await cluster.close()
            return victim.name, reports, after, stats

        victim, reports, after, stats = asyncio.run(scenario())
        assert len(reports) == 1 and reports[0].source == victim
        assert after.ok and after.metadata["fallback"] is False
        assert after.metadata["replica"] != victim
        assert np.array_equal(after.corrections, expected.corrections)
        assert stats["replicas"][victim]["state"] == "down"
        assert victim not in stats["ring_nodes"]
        assert stats["lost"] == 0

    def test_decommission_without_owned_shards_is_a_noop_migration(self):
        async def scenario():
            cluster = DecodeCluster(n_replicas=3, policy=fast_policy(),
                                    seed=0)
            await cluster.decode(
                SHARD, make_syndromes(3, "z", 2, seed=75)
            )
            bystander = next(
                r for r in cluster.replicas
                if r.name != cluster.primary_for(SHARD).name
            )
            reports = await cluster.decommission(bystander.name)
            await cluster.close()
            return reports

        assert asyncio.run(scenario()) == []


class TestMigrationDrill:
    def test_migrate_mid_trace_is_invisible_in_output(self, tmp_path):
        """The ISSUE acceptance drill: flip ownership at 50% of a live
        trace with the journal on — zero lost, zero duplicates, golden
        bits, and the migration window's p99 recorded against steady
        state."""
        async def scenario():
            cluster = DecodeCluster(
                n_replicas=3, policy=fast_policy(), seed=11,
                journal=RequestJournal(tmp_path / "drill.wal"),
            )
            trace = poisson_trace(400.0, 60, seed=11)
            report = await run_chaos_load(
                cluster, SHARD, trace,
                events=[ChaosEvent(0.5, "migrate")], seed=11,
            )
            await cluster.close()
            return report

        report = asyncio.run(scenario())
        assert report.lost == 0
        assert report.duplicate_frames == 0
        assert report.ok == report.n_requests
        assert report.golden_match is True
        assert len(report.migrations) == 1
        assert report.migrations[0]["source"] != report.migrations[0]["target"]
        assert report.journal_audit is not None
        assert report.journal_audit["ok"] is True
        payload = report.as_dict()
        assert "migration_window_p99_us" in payload
        assert "steady_p99_us" in payload
        assert "migration_p99_ratio" in payload
        assert report.steady_p99_us is not None and report.steady_p99_us > 0
