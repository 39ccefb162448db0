"""Races between background epoch publishes and concurrent queries.

A sharded publish hydrates every worker process with the new epoch's shard
and retires the oldest one while queries are in flight on other threads.
These tests hammer that window — 16 query threads against a
``processes`` or ``tcp`` engine whose epochs flip in the background — and
assert the two invariants the design promises:

* **all-or-nothing answers** — every query sees exactly one published epoch
  (never a half-hydrated shard mix), observable on a bridge graph whose
  answer flips wholesale on one edge;
* **monotonic epochs** — no thread ever observes the epoch counter move
  backwards, even while workers retire epochs underneath still-running
  queries.

The ``maintainer._before_publish`` seam stages the nastiest interleaving
deterministically: queries running while a fully-built epoch (workers
hydrated) sits unpublished on the swap threshold.
"""

import threading

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.cluster.executors import StaleEpochError
from repro.core.shard_exec import LOCAL_STEP_TASK
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs
from repro.service import DSRService

QUERY_THREADS = 16

#: Both sharded executors hydrate their workers the same way: one pickled
#: shard per rank and epoch, over the rank's link.
SHARDED = ["processes", "tcp"]


def _bridge_graph():
    """Answer flips all-or-nothing on the single ``0 → 1`` bridge edge."""
    graph = DiGraph.from_edges(
        [(1, 10), (1, 11), (1, 12), (1, 13), (10, 20), (11, 21), (12, 22), (13, 23)]
    )
    graph.add_vertex(0)
    return graph


BRIDGE_QUERY = ReachQuery((0,), (20, 21, 22, 23))
FULL_ANSWER = {(0, 20), (0, 21), (0, 22), (0, 23)}


def _epochs_held(engine):
    """``{rank: epochs}`` each worker process holds, asked over its link.

    No worker holds epoch -1, so every rank answers the probe ``stale`` with
    the epochs it has.
    """
    held = {}
    for rank in range(engine.index.num_partitions):
        with pytest.raises(StaleEpochError) as info:
            engine.cluster.executor.run_shard_phase(LOCAL_STEP_TASK, -1, {rank: None})
        held[rank] = set(info.value.available)
    return held


def _all_or_nothing(result):
    assert result.pairs in (set(), FULL_ANSWER), (
        f"torn answer at epoch {result.epoch}: {result.pairs}"
    )


def _hammer(run_query, rounds, check=_all_or_nothing):
    """Run QUERY_THREADS query loops while ``rounds()`` mutates the index.

    Returns the list of failures collected from the query threads; each
    thread ``check``s every answer (all-or-nothing by default) and asserts
    monotonic epochs.
    """
    errors = []
    stop = threading.Event()

    def querier():
        last_epoch = -1
        try:
            while not stop.is_set():
                result = run_query()
                check(result)
                assert result.epoch >= last_epoch, (
                    f"epoch went backwards: {last_epoch} -> {result.epoch}"
                )
                last_epoch = result.epoch
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=querier) for _ in range(QUERY_THREADS)]
    for thread in threads:
        thread.start()
    try:
        rounds()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    return errors


@pytest.mark.parametrize("executor", SHARDED)
class TestEnginePublishEpochRace:
    def _engine(self, executor):
        return open_engine(
            _bridge_graph(),
            DSRConfig(
                num_partitions=3,
                partitioner="hash",
                executor=executor,
                epoch_flush="background",
            ),
        )

    def test_background_flushes_vs_sixteen_query_threads(self, executor):
        engine = self._engine(executor)
        try:

            def rounds():
                for _ in range(5):
                    engine.insert_edge(0, 1)
                    engine.wait_for_maintenance(timeout=30)
                    engine.delete_edge(0, 1)
                    engine.wait_for_maintenance(timeout=30)

            errors = _hammer(lambda: engine.run(BRIDGE_QUERY), rounds)
            assert not errors, errors[0]
            assert engine.maintainer.background_flush_error is None
            # The retain window held throughout: every worker keeps only
            # the live epochs' shards, the older ones were dropped mid-race.
            for rank, held in _epochs_held(engine).items():
                assert engine.epoch in held, rank
                assert held <= {engine.epoch - 1, engine.epoch}, rank
        finally:
            engine.close()

    def test_queries_on_swap_threshold_see_exactly_one_epoch(self, executor):
        """Freeze a built-but-unpublished epoch (workers hydrated) and query
        through the window from all threads."""
        engine = self._engine(executor)
        try:
            entered = threading.Event()
            hold = threading.Event()

            def stall(state):
                entered.set()
                assert hold.wait(timeout=30), "flush released too late"

            engine.maintainer._before_publish = stall

            def rounds():
                engine.insert_edge(0, 1)
                assert entered.wait(timeout=30), "background flush never started"
                # Rank workers are hydrated with epoch 1, but the swap has
                # not happened: every answer must still be the epoch-0 one.
                for _ in range(50):
                    result = engine.run(BRIDGE_QUERY)
                    assert result.epoch == 0
                    assert result.pairs == set()
                hold.set()
                engine.maintainer._before_publish = None
                assert engine.wait_for_maintenance(timeout=30)
                assert engine.run(BRIDGE_QUERY).pairs == FULL_ANSWER

            errors = _hammer(lambda: engine.run(BRIDGE_QUERY), rounds)
            assert not errors, errors[0]
        finally:
            engine.maintainer._before_publish = None
            engine.close()


class TestServicePublishEpochRace:
    @pytest.mark.parametrize("executor", SHARDED)
    def test_large_single_run_query_vs_background_flushes(self, executor):
        """A 4900-pair request — one the planner used to cut into batches
        that each captured their own epoch — is now one engine run, raced
        lock-free against background flushes: every response equals the
        oracle of the epoch it is stamped with."""
        width = 70
        sources = tuple(range(100, 100 + width))
        targets = tuple(range(300, 300 + width))
        # s_i → t_i always; s_i → 1 and 2 → t_j make the 1 → 2 bridge flip
        # all 4900 pairs at once.
        graph = DiGraph.from_edges(
            [(s, t) for s, t in zip(sources, targets)]
            + [(s, 1) for s in sources]
            + [(2, t) for t in targets]
        )
        engine = open_engine(
            graph,
            DSRConfig(
                num_partitions=3,
                partitioner="hash",
                executor=executor,
                epoch_flush="background",
            ),
        )
        request = ReachQuery(sources, targets, use_cache=False)
        oracle_at = {engine.epoch: reachable_pairs(engine.graph, sources, targets)}
        responses = []
        try:
            with DSRService(engine, num_workers=2) as service:

                def rounds():
                    for _ in range(4):
                        for update in (engine.insert_edge, engine.delete_edge):
                            update(1, 2)
                            assert engine.wait_for_maintenance(timeout=30)
                            oracle_at[engine.epoch] = reachable_pairs(
                                engine.graph, sources, targets
                            )

                def check(response):
                    assert response.num_batches == 1, response
                    responses.append(response)

                errors = _hammer(lambda: service.handle(request), rounds, check=check)
            assert not errors, errors[0]
            assert engine.maintainer.background_flush_error is None
            assert {len(oracle) for oracle in oracle_at.values()} == {
                width, width * width
            }
            assert len({response.epoch for response in responses}) > 1
            for response in responses:
                assert response.pair_set == oracle_at[response.epoch], response.epoch
        finally:
            engine.close()

