"""A state machine over a serving engine against a model graph.

Hypothesis drives one engine with inline flushes through
:class:`~repro.service.DSRService` — edge and vertex inserts and deletes
(deletes of edges on a cycle among them, which can split a component a
flush would otherwise keep), an explicit flush, an explicitly negative vertex id, and queries forward,
backward and ``auto``, with and without the result cache — while a model
``DiGraph`` takes the same updates.  Every answer must equal
:func:`reachable_pairs` on the model: the epoch a query reads is always
brought up to date first (inline flush), so every answer is exact.

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
    precondition,
    rule,
)

from repro.api import DSRConfig, open_engine  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.graph.traversal import is_reachable, reachable_pairs  # noqa: E402
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


class ServedEngineMachine(RuleBasedStateMachine):
    """Updates and queries on a served engine, checked against a model graph."""

    engine = None
    service = None

    @initialize(seed=st.integers(0, 2**16), web=st.booleans())
    def open(self, seed, web):
        if web:
            graph = generators.web_graph(30, 3.0, seed=seed)
        else:
            graph = generators.random_digraph(30, 70, seed=seed)
        self.model = graph.copy()
        self.engine = open_engine(
            graph,
            DSRConfig(
                num_partitions=PARTITIONS,
                enable_backward=True,
                epoch_flush="inline",
                executor=EXECUTOR,
            ),
        )
        self.service = DSRService(self.engine, num_workers=1, cache_capacity=64)

    def teardown(self):
        if self.service is not None:
            self.service.close()
        if self.engine is not None:
            self.engine.close()

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
        """Delete an edge on a cycle: the deletes that can split a component."""
        u, v = data.draw(st.sampled_from(self.cycle_edges()))
        self.update("delete-edge", u, v)
        self.model.remove_edge(u, v)

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

    @rule(
        data=st.data(),
        direction=st.sampled_from(["forward", "backward", "auto"]),
        use_cache=st.booleans(),
    )
    def query(self, data, direction, use_cache):
        vertices = self.vertices()
        pick = st.lists(st.sampled_from(vertices), min_size=1, max_size=6, unique=True)
        sources, targets = data.draw(pick), data.draw(pick)
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
