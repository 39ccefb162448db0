"""Races between background shm epoch publishes and concurrent queries.

The shared-memory publish path adds a new hazard class on top of the plain
epoch swap: segments are created, hydrated into worker processes and retired
while queries are in flight on other threads.  These tests hammer that
window — 16 query threads against an ``executor="processes"`` engine whose
epochs flip in the background — and assert the two invariants the design
promises:

* **all-or-nothing answers** — every query sees exactly one published epoch
  (never a half-hydrated shard mix), observable on a bridge graph whose
  answer flips wholesale on one edge;
* **monotonic epochs** — no thread ever observes the epoch counter move
  backwards, even while retired segments are being unlinked underneath
  still-running queries.

The ``maintainer._before_publish`` seam stages the nastiest interleaving
deterministically: queries running while a fully-built epoch (segments
written, workers hydrated) sits unpublished on the swap threshold.
"""

import threading

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.cluster.shm import shm_available
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs
from repro.service import DSRService

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable or disabled"
)

QUERY_THREADS = 16


def _bridge_graph():
    """Answer flips all-or-nothing on the single ``0 → 1`` bridge edge."""
    graph = DiGraph.from_edges(
        [(1, 10), (1, 11), (1, 12), (1, 13), (10, 20), (11, 21), (12, 22), (13, 23)]
    )
    graph.add_vertex(0)
    return graph


BRIDGE_QUERY = ReachQuery((0,), (20, 21, 22, 23))
FULL_ANSWER = {(0, 20), (0, 21), (0, 22), (0, 23)}


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


class TestEngineShmEpochRace:
    def _engine(self):
        return open_engine(
            _bridge_graph(),
            DSRConfig(
                num_partitions=3,
                partitioner="hash",
                executor="processes",
                epoch_flush="background",
            ),
        )

    def test_background_shm_flushes_vs_sixteen_query_threads(self):
        engine = self._engine()
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
            # The retain window held throughout: only the live epochs' shm
            # segments remain, the older ones were unlinked mid-race.
            ledger = engine.index._shm_ledger
            if ledger is not None:
                held = {
                    int(name.split("_e")[1].split("_")[0])
                    for name in ledger.segment_names()
                }
                assert held <= {engine.epoch, engine.epoch - 1}
        finally:
            engine.close()

    def test_queries_on_swap_threshold_see_exactly_one_epoch(self):
        """Freeze a built-but-unpublished epoch (segments written, workers
        hydrated) and query through the window from all threads."""
        engine = self._engine()
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
                # Epoch 1's segments exist and rank workers are hydrated,
                # but the swap has not happened: every answer must still be
                # the epoch-0 one.
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


class TestServiceShmEpochRace:
    def test_large_single_run_query_vs_background_flushes(self):
        """A 4900-pair request — one the planner used to cut into batches
        that each captured their own epoch — is now one engine run, raced
        lock-free against background shm flushes: every response equals the
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
                executor="processes",
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

