"""A flush keeps a compound graph's condensation when its edits cannot change it.

After a flush, compound graph ``G^C_i`` keeps the published epoch's SCC
numbering (no Tarjan run) when its vertex ids are unchanged, every inserted
edge stays inside a component or descends in that numbering, and every
deleted edge inside a component is bypassed
(:func:`repro.core.compound_graph.condensation_holds`).  A kept numbering is
not the one a fresh Tarjan gives, so condensations are compared with a fresh
build up to relabelling; the compound CSR itself stays byte-identical.

The rule is pinned three ways: on snapshots directly, one engine case per
rule, and after every flush of a seeded update script — where every
condensation must equal a fresh one up to relabelling, every DAG edge must
descend and every answer must equal :func:`reachable_pairs`.  The engines
run on the executors ``REPRO_TEST_EXECUTORS`` names (``serial`` unless it
is set), so CI can run the module with kept condensations shipped to forked
workers.
"""

import os
import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.core.compound_graph import CondensedReachability, condensation_holds
from repro.core.equivalence import FORWARD, class_id
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs
from repro.obs import use_registry
from repro.partition.partition import GraphPartitioning
from tests.core.test_compound_snapshots import (
    assert_matches_reference_up_to_relabelling,
    reference_compound,
)


EXECUTORS = tuple(
    name.strip()
    for name in os.environ.get("REPRO_TEST_EXECUTORS", "serial").split(",")
    if name.strip()
)


def spine_script(graph, count, rng):
    """``count`` updates, delete-edge / insert-edge alternating, all valid."""
    vertices = sorted(graph.vertices())
    edges = sorted(graph.edges())
    live = set(edges)
    script = []
    for step in range(count):
        if step % 2 == 0:
            slot = rng.randrange(len(edges))
            edges[slot], edges[-1] = edges[-1], edges[slot]
            u, v = edges.pop()
            live.discard((u, v))
            script.append(("delete", u, v))
        else:
            while True:
                u, v = rng.sample(vertices, 2)
                if (u, v) not in live:
                    break
            live.add((u, v))
            edges.append((u, v))
            script.append(("insert", u, v))
    return script


def apply(engine, update):
    op, u, v = update
    (engine.insert_edge if op == "insert" else engine.delete_edge)(u, v)


def assert_exact(engine, seed, size=25):
    rng = random.Random(seed)
    vertices = sorted(engine.graph.vertices())
    sources = rng.sample(vertices, min(size, len(vertices)))
    targets = rng.sample(vertices, min(size, len(vertices)))
    expected = reachable_pairs(engine.graph, sources, targets)
    for direction in ("forward", "backward"):
        query = ReachQuery(sources, targets, direction=direction)
        assert engine.run(query).pairs == expected, direction


def assert_condensations_are_fresh(engine):
    """Every compound graph of both indexes against a fresh per-edge build."""
    for index in (engine.index, engine._reverse_index):
        state = index.current_state()
        cut_edges = index.partitioning.cut_edges()
        for pid, compound in state.compound_graphs.items():
            reference = reference_compound(
                pid, index.partitioning.local_subgraph(pid), state.summaries, cut_edges
            )
            assert_matches_reference_up_to_relabelling(compound, reference)


# ---------------------------------------------------------------------- #
# the rule on snapshots
# ---------------------------------------------------------------------- #
def condensed(edges, vertices=()):
    graph = CSRGraph.from_edges(vertices, edges)
    return graph, CondensedReachability(graph)


def holds(edges, inserted=(), deleted=(), added=()):
    """Whether the condensation of ``edges`` holds after the edit.

    The edit keeps every vertex of ``edges`` and adds those of ``added``.
    """
    graph, view = condensed(edges)
    after = (set(edges) - set(deleted)) | set(inserted)
    return condensation_holds(
        view, CSRGraph.from_edges((*graph.ids, *added), sorted(after)), inserted, deleted
    )


class TestTheRule:
    # 0 -> 1 -> 2 -> 0 is one SCC; it reaches 3 -> 4.
    EDGES = [(0, 1), (1, 2), (2, 0), (0, 2), (2, 3), (3, 4)]

    def test_an_insert_inside_a_component_holds(self):
        assert holds(self.EDGES, inserted=[(1, 0)])

    def test_a_descending_insert_holds(self):
        assert holds(self.EDGES, inserted=[(0, 4), (1, 3)])

    def test_an_ascending_insert_does_not(self):
        # 4 is reached from 3, so 4 -> 3 closes a cycle.
        assert not holds(self.EDGES, inserted=[(4, 3)])
        # 4 -> 0 ascends too, even though the SCC it would merge is bigger.
        assert not holds(self.EDGES, inserted=[(4, 0)])

    def test_a_bypassed_delete_holds(self):
        # 0 -> 2 survives through 0 -> 1 -> 2.
        assert holds(self.EDGES, deleted=[(0, 2)])

    def test_an_unbypassed_delete_does_not(self):
        # Without 2 -> 0 the SCC splits.
        assert not holds(self.EDGES, deleted=[(2, 0)])

    def test_deletes_between_components_need_no_bypass(self):
        assert holds(self.EDGES, deleted=[(3, 4)])

    def test_an_edge_listed_both_ways_is_one_the_graphs_share(self):
        assert holds(self.EDGES, inserted=[(2, 0)], deleted=[(2, 0)])

    def test_a_changed_vertex_set_does_not(self):
        assert not holds(self.EDGES, inserted=[(3, 5)])
        assert not holds(self.EDGES, added=[9])

    def test_the_bypass_may_need_the_whole_component(self):
        # A long cycle with a chord: deleting the chord leaves the cycle.
        cycle = [(v, (v + 1) % 40) for v in range(40)]
        assert holds(cycle + [(0, 20)], deleted=[(0, 20)])
        assert not holds(cycle + [(0, 20)], deleted=[(5, 6)], inserted=[(1, 0)])

    def test_a_kept_view_reuses_the_numbering_and_descends(self):
        graph, view = condensed(self.EDGES)
        after = CSRGraph.from_edges((), sorted(set(self.EDGES) | {(0, 4)}))
        assert condensation_holds(view, after, [(0, 4)], [])
        kept = CondensedReachability(after, kept=view)
        assert kept.vertex_to_component is view.vertex_to_component
        assert kept.expansion is view.expansion
        assert kept.dag.edges_descend()
        assert kept.dag.num_edges == view.dag.num_edges + 1
        fresh = CondensedReachability(after)
        for source in after.ids:
            assert fresh.set_reachability_rows([source]) == (
                CondensedReachability(after, kept=view).set_reachability_rows([source])
            )


# ---------------------------------------------------------------------- #
# one engine case per rule
# ---------------------------------------------------------------------- #
# Partition 0 holds 0..5, partition 1 holds 10..13.
#
# * S = {0, 1, 10, 11, 12} is one SCC of the whole graph: 0 -> 1 -> 10 ->
#   11 -> 0 with 1 -> 12 -> 11 beside it; 10 and 12 form one forward class
#   of partition 1 (representative 10).
# * 0 -> 13 makes 0 an out-boundary too (13 is a sink).
# * 2, 3, 4 are an SCC inside partition 0 (2 -> 3 -> 2, 2 -> 4 -> 3),
#   away from every boundary, and 5 -> 2 reaches it.
CASE_EDGES = [
    (0, 1), (1, 10), (10, 11), (11, 0), (1, 12), (12, 11), (0, 13),
    (2, 3), (3, 2), (2, 4), (4, 3), (5, 2),
]
CASE_ASSIGNMENT = {v: 0 for v in range(6)} | {v: 1 for v in range(10, 14)}


@pytest.fixture(params=EXECUTORS)
def engine(request):
    graph = DiGraph.from_edges(CASE_EDGES)
    partitioning = GraphPartitioning(graph, dict(CASE_ASSIGNMENT), 2)
    engine = open_engine(
        graph,
        DSRConfig(num_partitions=2, enable_backward=True, executor=request.param),
        partitioning=partitioning,
    )
    yield engine
    engine.close()


def flush(engine):
    """Flush; return the kept partitions of the forward and reverse index."""
    with use_registry() as registry:
        result = engine.flush_updates()
        counters = registry.as_dict()["counters"]
    assert result.published
    assert counters.get('dsr_flush_condensations_total{outcome="kept"}', 0) == len(
        result.kept_condensations
    ) + len(engine._reverse_index.current_state().kept_condensations)
    assert_condensations_are_fresh(engine)
    assert_exact(engine, 0, size=12)
    return result.kept_condensations, set(
        engine._reverse_index.current_state().kept_condensations
    )


class TestEngineCases:
    def test_a_cut_insert_inside_an_scc_is_kept(self, engine):
        engine.insert_edge(0, 10)
        forward, backward = flush(engine)
        assert forward == {0, 1}
        assert backward == {0, 1}

    def test_an_ascending_insert_runs_tarjan(self, engine):
        # 5 reaches 2, so 2 -> 5 ascends and merges 5 into {2, 3, 4}.
        engine.insert_edge(2, 5)
        forward, backward = flush(engine)
        assert forward == {1}
        assert backward == {1}

    def test_a_bypassed_intra_component_delete_is_kept(self, engine):
        engine.delete_edge(2, 3)  # 2 -> 4 -> 3 remains
        forward, _ = flush(engine)
        assert forward == {0, 1}

    def test_an_unbypassed_delete_runs_tarjan(self, engine):
        before = engine.index.current_state().compound_graphs[0].condensation_view()
        engine.delete_edge(4, 3)  # 4 no longer reaches 3: {2, 3, 4} splits
        forward, _ = flush(engine)
        assert forward == {1}
        after = engine.index.current_state().compound_graphs[0].condensation_view()
        assert after.dag.num_vertices == before.dag.num_vertices + 1

    def test_a_changed_representative_runs_tarjan(self, engine):
        old_class = class_id(10, FORWARD)
        assert old_class in engine.index.current_state().compound_graphs[0].graph.ids
        engine.delete_edge(1, 10)  # 10 leaves I_1: the class becomes {12}
        forward, _ = flush(engine)
        ids = engine.index.current_state().compound_graphs[0].graph.ids
        assert old_class not in ids and class_id(12, FORWARD) in ids
        assert 0 not in forward

    def test_the_flush_after_an_isolated_vertex_insert_runs_tarjan(self, engine):
        """The flush that publishes a new vertex condenses its partition
        afresh: the vertex set changed, which :func:`condensation_holds`
        refuses."""
        vertex = engine.insert_vertex(partition_id=0)
        engine.insert_edge(0, 10)
        forward, backward = flush(engine)
        assert forward == {1} and backward == {1}
        assert vertex in engine.index.current_state().compound_graphs[0].graph.ids
        # The next flush keeps it again.
        engine.delete_edge(0, 10)
        assert flush(engine)[0] == {0, 1}

    def test_a_failed_flush_keeps_the_published_base(self, engine):
        engine.insert_edge(0, 10)
        maintainer = engine._maintainer

        def fail(state):
            raise RuntimeError("publish refused")

        maintainer._before_publish = fail
        with pytest.raises(RuntimeError):
            engine.flush_updates()
        maintainer._before_publish = None
        forward, _ = flush(engine)
        assert forward == {0, 1}

    def test_a_re_summarised_partition_with_an_equal_summary_keeps_the_object(
        self, engine
    ):
        summary = engine.index.current_state().summaries[0]
        engine.insert_edge(5, 4)  # 5 -> 4 adds local reach, not boundary reach
        result = engine.flush_updates()
        assert result.refreshed_partitions == {0}
        assert engine.index.current_state().summaries[0] is summary
        assert result.kept_condensations == {0, 1}


# ---------------------------------------------------------------------- #
# a seeded update script
# ---------------------------------------------------------------------- #
GRAPHS = {
    "dag": lambda: generators.dag(300, 1200, seed=5),
    "web": lambda: generators.web_graph(300, 5.5, seed=5),
}


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_every_flush_of_a_script_keeps_only_what_holds(graph_name, executor):
    graph = GRAPHS[graph_name]()
    script = spine_script(graph, 4 * 12, random.Random(7))
    engine = open_engine(
        graph.copy(),
        DSRConfig(
            num_partitions=4, local_index="msbfs", enable_backward=True, executor=executor
        ),
    )
    kept = 0
    try:
        for cycle in range(12):
            for update in script[4 * cycle : 4 * cycle + 4]:
                apply(engine, update)
            result = engine.flush_updates()
            kept += len(result.kept_condensations)
            assert_condensations_are_fresh(engine)
            assert_exact(engine, cycle)
    finally:
        engine.close()
    assert kept > 0
