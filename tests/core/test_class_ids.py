"""Class ids are canonical, negative and bounded.

A class id is a function of the class alone
(:func:`repro.core.equivalence.class_id`), so a partition re-summarised
without a change to its inputs yields an equal summary, and the flush keeps
the published object.  Real ids are non-negative, class ids negative: an
auto id never meets a class id, an explicit negative one is refused, and the
class ids of a long-lived index stay inside ``[-2 (max real id + 1), 0)``,
within the looser ``[-2 P (max real id + 1), 0)`` the id span is sized by.
"""

import random

import pytest

from repro.api import DSRConfig, open_engine
from repro.graph import generators
from repro.graph.digraph import GraphError
from tests.core.test_kept_condensations import apply, spine_script

GRAPHS = {
    "dag": lambda: generators.dag(200, 800, seed=3),
    "web": lambda: generators.web_graph(200, 5.5, seed=3),
}
FLUSHES = 300


def class_ids(index):
    return {
        cls.class_id
        for summary in index.current_state().summaries.values()
        for cls in (*summary.forward_classes, *summary.backward_classes)
    }


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_class_ids_stay_bounded_over_many_flushes(graph_name):
    graph = GRAPHS[graph_name]()
    script = spine_script(graph, 4 * FLUSHES, random.Random(11))
    engine = open_engine(graph.copy(), DSRConfig(num_partitions=4, enable_backward=True))
    partitions = engine.index.num_partitions
    try:
        for flush in range(FLUSHES):
            for update in script[4 * flush : 4 * flush + 4]:
                apply(engine, update)
            engine.flush_updates()
            highest = max(engine.graph.vertices())
            for index in (engine.index, engine._reverse_index):
                ids = class_ids(index)
                assert all(-2 * (highest + 1) <= cid < 0 for cid in ids)
                assert all(-2 * partitions * (highest + 1) <= cid for cid in ids)
    finally:
        engine.close()


def test_an_unchanged_re_summarise_keeps_the_summary_object():
    graph = GRAPHS["web"]()
    engine = open_engine(graph, DSRConfig(num_partitions=4))
    try:
        state = engine.index.current_state()
        pid = 2
        u, v = sorted(engine.partitioning.vertices_of(pid))[:2]
        inserted = not engine.graph.has_edge(u, v)
        # An insert and delete of the same local edge dirty the partition
        # and leave its inputs as they were.
        if inserted:
            engine.insert_edge(u, v)
            engine.delete_edge(u, v)
        else:
            engine.delete_edge(u, v)
            engine.insert_edge(u, v)
        result = engine.flush_updates()
        assert pid in result.refreshed_partitions
        assert engine.index.current_state().summaries == state.summaries
        assert engine.index.current_state().summaries[pid] is state.summaries[pid]
    finally:
        engine.close()


def test_negative_ids_are_refused_and_auto_ids_are_real():
    engine = open_engine(GRAPHS["web"](), DSRConfig(num_partitions=4, enable_backward=True))
    try:
        with pytest.raises(GraphError):
            engine.insert_vertex(-3)
        assert not engine.graph.has_vertex(-3)
        taken = class_ids(engine.index) | class_ids(engine._reverse_index)
        for _ in range(5):
            vertex = engine.insert_vertex()
            assert vertex >= 0 and vertex not in taken
    finally:
        engine.close()
