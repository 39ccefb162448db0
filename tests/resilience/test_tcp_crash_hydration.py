"""Crash-during-hydration: kill a managed worker mid hydrate replay.

The chaos case the reconnect loop was restructured for: a managed worker
(a ``processes`` child or a ``tcp`` host) dies, its substitute is killed
*again* while the executor is replaying cached hydrations into it (via the
``executor.hydrate.replay`` failpoint), and the loop must still converge —
respawning a fresh substitute per attempt — and answer with exact serial
parity.
"""

import os
import signal

import pytest

from repro.api import DSRConfig, ReachQuery
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.executors import register_shard_loader, register_shard_task
from repro.core.engine import DSREngine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.resilience import FailPointSpec, use_failpoints


@register_shard_loader("crashtest.load")
def _load(blob):
    return dict(blob)


@register_shard_task("crashtest.scale")
def _scale(shard, payload):
    return shard["factor"] * payload


def _kill_managed_host(executor):
    """A ``call``-action failpoint body: SIGKILL the rank's current worker."""

    def kill(labels):
        victim = executor._managed[labels["rank"]]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)

    return kill


@pytest.mark.parametrize("name", ["processes", "tcp"])
class TestCrashDuringHydrationReplay:
    def test_executor_converges_after_mid_replay_kill(self, name):
        cluster = SimulatedCluster(2, executor=name)
        try:
            executor = cluster.executor
            cluster.hydrate_shards(
                0, {0: {"factor": 1}, 1: {"factor": 2}}, "crashtest.load"
            )
            assert cluster.run_shard_phase(
                "scale", "crashtest.scale", {0: 10, 1: 10}, epoch=0
            ) == {0: 10, 1: 20}
            # Kill worker 0; the next call triggers reconnect + replay.  The
            # failpoint kills the *substitute* right before the replayed
            # hydrate is sent, so attempt N's replay hits a fresh corpse and
            # attempt N+1 must respawn again.
            first_victim = executor._managed[0]
            os.kill(first_victim.pid, signal.SIGKILL)
            first_victim.join(timeout=5.0)
            with use_failpoints(
                [
                    FailPointSpec(
                        "executor.hydrate.replay",
                        action="call",
                        value=_kill_managed_host(executor),
                        labels={"rank": 0, "executor": name},
                        count=1,
                    )
                ]
            ) as registry:
                assert cluster.run_shard_phase(
                    "scale", "crashtest.scale", {0: 7, 1: 7}, epoch=0
                ) == {0: 7, 1: 14}
                assert registry.fired("executor.hydrate.replay") == 1
            # Two generations of worker 0 died; the survivor is a third pid.
            assert executor._managed[0].pid != first_victim.pid
            assert executor._managed[0].is_alive()
        finally:
            cluster.close()

    @pytest.mark.parametrize("kills", [1, 2])
    def test_engine_answers_with_exact_serial_parity(self, name, kills):
        graph = generators.social_graph(150, avg_degree=4, seed=5)
        serial = DSREngine.from_config(
            graph.copy(),
            DSRConfig(num_partitions=3, local_index="msbfs", seed=2),
        )
        remote = DSREngine.from_config(
            graph.copy(),
            DSRConfig(
                num_partitions=3, local_index="msbfs", seed=2, executor=name
            ),
        )
        serial.build_index()
        remote.build_index()
        try:
            executor = remote.cluster.executor
            vertices = sorted(graph.vertices())
            query = ReachQuery(tuple(vertices[:6]), tuple(vertices[100:106]))
            expected = serial.run(query)
            assert set(remote.run(query).pairs) == set(expected.pairs)
            victim = executor._managed[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with use_failpoints(
                [
                    FailPointSpec(
                        "executor.hydrate.replay",
                        action="call",
                        value=_kill_managed_host(executor),
                        labels={"rank": 0, "executor": name},
                        count=kills,
                    )
                ]
            ) as registry:
                result = remote.run(query)
                assert registry.fired("executor.hydrate.replay") == kills
            # Exact parity: pairs, message and byte accounting all converge
            # to the serial ground truth despite the mid-replay crashes.
            assert set(result.pairs) == set(expected.pairs)
            assert result.messages_sent == expected.messages_sent
            assert result.bytes_sent == expected.bytes_sent
            assert set(result.pairs) == reachable_pairs(
                graph, vertices[:6], vertices[100:106]
            )
        finally:
            serial.close()
            remote.close()
