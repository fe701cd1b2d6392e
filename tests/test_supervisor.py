"""Cross-process replica supervision: real processes, real signals.

The contract under test: the supervisor spawns each replica as an OS
subprocess serving real TCP (the ``READY host port`` handshake makes
"spawned" mean "accepting connections"), a SIGKILLed process is
detected by liveness polling and restarted under capped backoff with
its new address adopted by the router, a SIGSTOPped process stays
"alive" to the monitor (only missed heartbeats reveal it), and a
crash-looping process exhausts its flap budget instead of burning the
host.  Process-spawning tests are marked ``slow``.
"""

import asyncio
import signal
from typing import List

import numpy as np
import pytest

from repro.service import RetryPolicy, ShardKey
from repro.service.cluster import (
    ClusterPolicy,
    DecodeCluster,
    ReplicaProcess,
    Supervisor,
    SupervisorPolicy,
)
from repro.service.cluster.supervisor import _replica_argv

from test_service import direct_batch, make_syndromes

SHARD = ShardKey("unionfind", 3, "z")


def fast_policy(**overrides) -> ClusterPolicy:
    defaults = dict(
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=0.25,
        request_timeout_s=2.0,
        retry=RetryPolicy(max_attempts=4, base_us=200.0, jitter=0.0),
    )
    defaults.update(overrides)
    return ClusterPolicy(**defaults)


#: wall-clock bound on one process scenario: a stall fails the test
#: with a message instead of hanging the suite
SCENARIO_TIMEOUT_S = 60.0


class ProcessScope:
    """Spawns a test's replica processes and runs its scenarios bounded."""

    def __init__(self) -> None:
        self.processes: List[ReplicaProcess] = []

    def supervisor(self, cluster, n=2, **policy_overrides) -> Supervisor:
        defaults = dict(backoff_base_s=0.05, poll_interval_s=0.05)
        defaults.update(policy_overrides)
        supervisor = Supervisor(cluster, n_processes=n,
                                policy=SupervisorPolicy(**defaults))
        self.processes.extend(supervisor.processes.values())
        return supervisor

    def process(self, name: str) -> ReplicaProcess:
        process = ReplicaProcess(name)
        self.processes.append(process)
        return process

    def run(self, scenario):
        """``asyncio.run`` one scenario under :data:`SCENARIO_TIMEOUT_S`.

        Every process the scenario spawned is stopped before the loop
        closes, also after a stall: a child left running would keep an
        executor thread blocked on its stdout and the loop from
        shutting down.
        """
        async def bounded():
            try:
                return await asyncio.wait_for(scenario(), SCENARIO_TIMEOUT_S)
            except asyncio.TimeoutError:
                raise AssertionError(
                    f"scenario stalled for more than "
                    f"{SCENARIO_TIMEOUT_S:.0f} s"
                ) from None
            finally:
                for process in self.processes:
                    process.stop()

        return asyncio.run(bounded())


@pytest.fixture
def scope() -> ProcessScope:
    return ProcessScope()


class TestSupervisorPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_flaps=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(ready_timeout_s=0.0)

    def test_replica_argv_shape(self):
        argv = _replica_argv(["--workers", "0"])
        assert argv[1:4] == ["-m", "repro.service", "replica"]
        assert "--port" in argv and argv[-2:] == ["--workers", "0"]

    def test_signal_on_dead_process_rejected(self):
        process = ReplicaProcess("p0")
        assert not process.alive and process.pid is None
        with pytest.raises(ValueError):
            process.send_signal(signal.SIGKILL)

    def test_supervisor_needs_processes(self):
        with pytest.raises(ValueError):
            Supervisor(cluster=None, n_processes=0)


@pytest.mark.slow
class TestReplicaProcess:
    def test_spawn_handshake_and_stop(self, scope):
        async def scenario():
            process = scope.process("p0")
            host, port = await process.spawn(ready_timeout_s=30.0)
            alive = process.alive
            process.stop()
            return host, port, alive, process.alive

        host, port, alive, alive_after = scope.run(scenario)
        assert host == "127.0.0.1" and port > 0
        assert alive and not alive_after

    def test_spawned_process_serves_decode(self, scope):
        syndromes = make_syndromes(3, "z", 6, seed=80)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            from repro.service import DecodeClient
            process = scope.process("p0")
            host, port = await process.spawn(ready_timeout_s=30.0)
            client = await DecodeClient.connect_tcp(host, port)
            outcome = await client.decode(SHARD, syndromes)
            await client.close()
            process.stop()
            return outcome

        outcome = scope.run(scenario)
        assert outcome.ok
        assert np.array_equal(outcome.corrections, expected.corrections)


@pytest.mark.slow
class TestSupervisedCluster:
    def test_supervised_fleet_serves_golden(self, scope):
        syndromes = make_syndromes(3, "z", 8, seed=81)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=0, policy=fast_policy(),
                                    seed=0)
            supervisor = scope.supervisor(cluster, n=2)
            await supervisor.start()
            outcome = await cluster.decode(SHARD, syndromes)
            stats = cluster.stats()
            snapshot = supervisor.snapshot()
            await cluster.close()          # closes the supervisor too
            return outcome, stats, snapshot

        outcome, stats, snapshot = scope.run(scenario)
        assert outcome.ok and outcome.metadata["fallback"] is False
        assert np.array_equal(outcome.corrections, expected.corrections)
        assert sorted(stats["replicas"]) == ["p0", "p1"]
        assert all(p["alive"] for p in snapshot["processes"].values())

    def test_sigkill_restarts_and_rejoins(self, scope):
        """The ISSUE acceptance drill, distilled: SIGKILL a process,
        the supervisor restarts it, the router adopts the new address,
        and requests keep decoding golden throughout."""
        syndromes = make_syndromes(3, "z", 6, seed=82)
        expected = direct_batch("unionfind", 3, "z", syndromes)

        async def scenario():
            cluster = DecodeCluster(n_replicas=0, policy=fast_policy(),
                                    seed=0)
            supervisor = scope.supervisor(cluster, n=2)
            await supervisor.start()
            await cluster.decode(SHARD, syndromes)
            old_pid = supervisor.sigkill("p0")
            cluster.replica("p0").drop_client()
            # the fleet keeps serving while p0 is down
            during = await cluster.decode(SHARD, syndromes)
            for _ in range(600):           # wait out backoff + respawn
                await asyncio.sleep(0.05)
                if supervisor.restarts >= 1:
                    break
            restarted = supervisor.restarts
            new_pid = supervisor.processes["p0"].pid
            replica = cluster.replica("p0")
            adopted = (replica.restarts, replica.state)
            after = await cluster.decode(SHARD, syndromes)
            await cluster.close()
            return old_pid, new_pid, restarted, adopted, during, after

        old_pid, new_pid, restarted, adopted, during, after = (
            scope.run(scenario)
        )
        assert restarted >= 1 and new_pid != old_pid
        assert adopted[0] >= 1               # router adopted the restart
        assert adopted[1] in ("up", "suspect")
        assert during.ok and after.ok
        assert np.array_equal(during.corrections, expected.corrections)
        assert np.array_equal(after.corrections, expected.corrections)

    def test_sigstop_is_invisible_to_liveness_polling(self, scope):
        """A SIGSTOPped process is alive to the monitor — no restart —
        while the router's heartbeats demote it out of dispatch."""
        syndromes = make_syndromes(3, "z", 4, seed=83)

        async def scenario():
            cluster = DecodeCluster(n_replicas=0, policy=fast_policy(),
                                    seed=0)
            supervisor = scope.supervisor(cluster, n=2)
            await supervisor.start()
            await cluster.start()
            await cluster.decode(SHARD, syndromes)
            supervisor.sigstop("p0")
            # heartbeats must notice what the monitor cannot
            for _ in range(100):
                await asyncio.sleep(0.05)
                if cluster.replica("p0").state in ("suspect", "down"):
                    break
            state = cluster.replica("p0").state
            alive = supervisor.processes["p0"].alive
            restarts = supervisor.restarts
            # the other process carries the traffic meanwhile
            outcome = await cluster.decode(SHARD, syndromes)
            supervisor.sigcont("p0")
            await cluster.close()
            return state, alive, restarts, outcome

        state, alive, restarts, outcome = scope.run(scenario)
        assert state in ("suspect", "down")
        assert alive is True and restarts == 0
        assert outcome.ok

    def test_flap_budget_gives_up_on_crash_loop(self, scope):
        """A process that can never stay up exhausts max_flaps and is
        left for dead instead of spinning the host."""
        async def scenario():
            cluster = DecodeCluster(n_replicas=0, policy=fast_policy(),
                                    seed=0)
            supervisor = scope.supervisor(
                cluster, n=1, max_flaps=2, flap_window_s=60.0,
                backoff_base_s=0.0,
            )
            await supervisor.start()
            # crash-loop by hand: SIGKILL after every respawn
            for _ in range(200):
                await asyncio.sleep(0.05)
                process = supervisor.processes["p0"]
                if process.gave_up:
                    break
                if process.alive and "p0" not in supervisor._restarting:
                    supervisor.sigkill("p0")
            gave_up = supervisor.processes["p0"].gave_up
            spawns = supervisor.processes["p0"].spawns
            await cluster.close()
            return gave_up, spawns

        gave_up, spawns = scope.run(scenario)
        assert gave_up is True
        # initial spawn + at most max_flaps restarts
        assert 2 <= spawns <= 3
