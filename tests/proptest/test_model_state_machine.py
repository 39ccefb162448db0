"""A state machine over a serving engine against a model graph.

Hypothesis drives one engine with inline flushes through
:class:`~repro.service.DSRService` — edge and vertex inserts and deletes
(deletes of edges on a cycle among them, which can split a component a
flush would otherwise keep), an explicit flush (after which every published
local snapshot must be its partition's live local graph), an explicitly
negative vertex id, and queries forward,
backward and ``auto``, with and without the result cache — while a model
``DiGraph`` takes the same updates.  Every answer must equal
:func:`reachable_pairs` on the model: the epoch a query reads is always
brought up to date first (inline flush), so every answer is exact.

The starting graph is a random digraph, a web graph, or a DAG with an SCC
planted inside partition 0, away from every boundary (:func:`planted_dag`):
there the flush peels an acyclic fringe, runs Tarjan on a cyclic core, and
keeps a condensation across a bypassed delete inside that SCC — the case
the delete rules must not get past.

After every rule, an index whose epoch has not moved still publishes the
state recorded at its publish, unchanged: an update reaches answers only
through the next epoch.

Every rule reaches the engine only through the service's public requests.
The engine runs on the first executor ``REPRO_TEST_EXECUTORS`` names
(``serial`` unless it is set), so CI drives the same machine against
forked ``processes`` workers.  The wire, background flushes and worker
kills are not covered here.
"""

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import DSRConfig, open_engine  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.graph.traversal import is_reachable, reachable_pairs  # noqa: E402
from repro.partition.partition import GraphPartitioning  # noqa: E402
from repro.service import DSRService  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    ErrorResponse,
    QueryRequest,
    QueryResponse,
    UpdateRequest,
    UpdateResponse,
)

PARTITIONS = 3
EXECUTOR = os.environ.get("REPRO_TEST_EXECUTORS", "serial").split(",")[0].strip()

#: The SCC :func:`planted_dag` plants in partition 0: ``4 -> 5`` is bypassed
#: by ``4 -> 6 -> 5``, ``5 -> 3`` is not.
PLANTED = ((3, 4), (4, 5), (5, 3), (4, 6), (6, 5))


def planted_dag(seed):
    """``(graph, partitioning)``: a DAG of 30 vertices, 10 per partition by
    id, with :data:`PLANTED` inside partition 0.  The SCC's vertices keep
    only edges inside partition 0, so none of them is a boundary vertex;
    ``0 -> 3`` and ``6 -> 9`` join it to the acyclic fringe."""
    graph = generators.dag(30, 70, seed=seed)
    interior = {u for edge in PLANTED for u in edge}
    for u, v in list(graph.edges()):
        if (u in interior or v in interior) and max(u, v) >= 10:
            graph.remove_edge(u, v)
    for u, v in PLANTED + ((0, 3), (6, 9)):
        graph.add_edge(u, v)
    assignment = {vertex: vertex // 10 for vertex in graph.vertices()}
    return graph, GraphPartitioning(graph, assignment, PARTITIONS)


class ServedEngineMachine(RuleBasedStateMachine):
    """Updates and queries on a served engine, checked against a model graph."""

    engine = None
    service = None

    @initialize(
        seed=st.integers(0, 2**16), kind=st.sampled_from(["random", "web", "planted"])
    )
    def open(self, seed, kind):
        partitioning = None
        if kind == "web":
            graph = generators.web_graph(30, 3.0, seed=seed)
        elif kind == "random":
            graph = generators.random_digraph(30, 70, seed=seed)
        else:
            graph, partitioning = planted_dag(seed)
        self.model = graph.copy()
        self.engine = open_engine(
            graph,
            DSRConfig(
                num_partitions=PARTITIONS,
                enable_backward=True,
                epoch_flush="inline",
                executor=EXECUTOR,
            ),
            partitioning=partitioning,
        )
        self.service = DSRService(self.engine, num_workers=1, cache_capacity=64)
        self.published = {}
        for index, maintainer in self.indexes():
            self.record_published(index)
            maintainer.add_flush_listener(
                lambda result, index=index: self.record_published(index)
            )

    def teardown(self):
        if self.service is not None:
            self.service.close()
        if self.engine is not None:
            self.engine.close()

    def indexes(self):
        """``(index, maintainer)`` of both directions."""
        engine = self.engine
        return (
            (engine.index, engine.maintainer),
            (engine._reverse_index, engine._reverse_maintainer),
        )

    def record_published(self, index):
        """Record what ``index`` published, at its publish."""
        state = index.current_state()
        self.published[index] = (
            state,
            {
                pid: (compound.graph, compound.condensation_view())
                for pid, compound in state.compound_graphs.items()
            },
            frozenset(state.assignment),
        )

    @invariant()
    def published_epochs_never_change(self):
        """While an index's epoch has not moved, its published state is the
        one recorded at its publish: the same object, holding the same
        compound snapshots and condensations, assigning the same vertices."""
        if self.engine is None:
            return
        for index, _ in self.indexes():
            state, objects, assigned = self.published[index]
            if index.epoch != state.epoch:
                continue
            assert index.current_state() is state
            assert state.compound_graphs.keys() == objects.keys()
            for pid, compound in state.compound_graphs.items():
                graph, condensed = objects[pid]
                assert compound.graph is graph
                assert compound.condensation_view() is condensed
            assert state.assignment.keys() == assigned

    def update(self, op, u=None, v=None, partition_id=None):
        response = self.service.handle(UpdateRequest(op, u, v, partition_id))
        assert isinstance(response, UpdateResponse), response
        return response

    def vertices(self):
        return sorted(self.model.vertices())

    @rule(data=st.data())
    def insert_edge(self, data):
        vertices = self.vertices()
        u = data.draw(st.sampled_from(vertices))
        v = data.draw(st.sampled_from(vertices))
        self.update("insert-edge", u, v)
        self.model.add_edge(u, v)

    @precondition(lambda self: self.model.num_edges > 0)
    @rule(data=st.data())
    def delete_edge(self, data):
        u, v = data.draw(st.sampled_from(sorted(self.model.edges())))
        self.update("delete-edge", u, v)
        self.model.remove_edge(u, v)

    @rule(partition_id=st.integers(0, PARTITIONS - 1))
    def insert_vertex(self, partition_id):
        vertex = self.update("insert-vertex", partition_id=partition_id).vertex
        assert vertex >= 0 and not self.model.has_vertex(vertex)
        self.model.add_vertex(vertex)

    @rule(vertex=st.integers(-5, -1))
    def insert_negative_vertex(self, vertex):
        response = self.service.handle(UpdateRequest("insert-vertex", vertex))
        assert isinstance(response, ErrorResponse) and response.error == "GraphError"

    @precondition(lambda self: self.cycle_edges())
    @rule(data=st.data())
    def delete_cycle_edge(self, data):
        """Delete an edge on a cycle: the deletes that can split a component.

        Then ask at once whether its two ends still reach each other: a
        flush that wrongly kept the component answers yes."""
        u, v = data.draw(st.sampled_from(self.cycle_edges()))
        self.update("delete-edge", u, v)
        self.model.remove_edge(u, v)
        self.check_query([u, v], [u, v], "auto", False)

    def cycle_edges(self):
        return sorted(
            (u, v) for u, v in self.model.edges() if u != v and is_reachable(self.model, v, u)
        )

    @precondition(lambda self: self.model.num_vertices > 8)
    @rule(data=st.data())
    def delete_vertex(self, data):
        vertex = data.draw(st.sampled_from(self.vertices()))
        self.update("delete-vertex", vertex)
        self.model.remove_vertex(vertex)

    @rule()
    def flush(self):
        self.update("flush")
        self.check_local_snapshots()

    def check_local_snapshots(self):
        """Every published local snapshot is its partition's live local graph.

        Only a partition the maintainer records as edited may lag, and only
        by what a flush that publishes nothing leaves pending: an edge its
        snapshot implies."""
        for index, maintainer in self.indexes():
            state = index.current_state()
            for pid in range(PARTITIONS):
                live = index.partitioning.local_subgraph(pid)
                compound = state.compound_graphs[pid]
                snapshot = compound.local_snapshot
                assert compound.local_vertices == set(live.vertices())
                assert set(snapshot.vertices()) == set(live.vertices())
                if pid not in maintainer._edited:
                    assert set(snapshot.edges()) == set(live.edges())
                else:
                    assert set(snapshot.edges()) <= set(live.edges())
                    assert all(
                        is_reachable(snapshot, u, v)
                        for u, v in set(live.edges()) - set(snapshot.edges())
                    )

    @rule(
        data=st.data(),
        direction=st.sampled_from(["forward", "backward", "auto"]),
        use_cache=st.booleans(),
    )
    def query(self, data, direction, use_cache):
        vertices = self.vertices()
        pick = st.lists(st.sampled_from(vertices), min_size=1, max_size=6, unique=True)
        self.check_query(data.draw(pick), data.draw(pick), direction, use_cache)

    def check_query(self, sources, targets, direction, use_cache):
        response = self.service.handle(QueryRequest(sources, targets, direction, use_cache))
        assert isinstance(response, QueryResponse), response
        assert set(response.pairs) == reachable_pairs(self.model, sources, targets)


TestServedEngine = ServedEngineMachine.TestCase
TestServedEngine.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
