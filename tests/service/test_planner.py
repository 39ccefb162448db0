"""Tests for the service query planner and the one direction rule.

``"auto"`` is resolved by one function, ``DSREngine.choose_direction``:
backward iff the engine has a backward index and the query names fewer
distinct targets than distinct sources.  The planner de-duplicates the
request and asks that function, so ``engine.run``, ``DSRService.handle`` and
a ``DSRClient`` over the wire all send an ``"auto"`` query the same way.
"""

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs
from repro.service import DSRAsyncServer, DSRClient, DSRService, ErrorResponse
from repro.service.planner import QueryPlanner


@pytest.fixture(scope="module")
def engine():
    graph = generators.web_graph(140, avg_degree=5, seed=11)
    engine = open_engine(
        graph,
        DSRConfig(num_partitions=4, local_index="msbfs", seed=2, enable_backward=True),
    )
    # More backward than forward entry handles: a rule that weighs entry
    # counts leans backward on square shapes, where the one rule goes forward.
    forward_entries, backward_entries = engine.index.total_boundary_entries()
    assert backward_entries > forward_entries
    return engine


@pytest.fixture(scope="module")
def forward_only_engine():
    graph = generators.random_digraph(60, 160, seed=5)
    engine = open_engine(graph, DSRConfig(num_partitions=3, seed=1))
    return engine


@pytest.fixture(scope="module")
def served(engine):
    """A service over ``engine`` behind the async front door."""
    service = DSRService(engine, num_workers=2)
    with DSRAsyncServer(service) as server:
        yield service, server.address
    service.close()


#: (sources, targets) by shape; vertex ids of the 140-vertex web graph.
SHAPES = {
    "square_1x1": ((5,), (90,)),
    "square_8x8": (tuple(range(8)), tuple(range(60, 68))),
    "square_30x30": (tuple(range(30)), tuple(range(70, 100))),
    "lopsided_40x2": (tuple(range(40)), (100, 120)),
    "lopsided_2x40": ((3, 9), tuple(range(50, 90))),
    # Raw lengths 3 > 2, distinct counts 1 < 2: forward.
    "duplicate_sources": ((1, 1, 1), (2, 3)),
    # Raw lengths 3 < 5, distinct counts 3 > 1: backward.
    "duplicate_targets": ((1, 2, 3), (4, 4, 4, 4, 4)),
}


def smaller_side(sources, targets):
    return "backward" if len(set(targets)) < len(set(sources)) else "forward"


class TestOneDirectionRule:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_auto_agrees_on_every_surface(self, engine, served, shape):
        sources, targets = SHAPES[shape]
        service, (host, port) = served
        expected = smaller_side(sources, targets)
        run = engine.run(ReachQuery(sources, targets, trace=True))
        handled = service.handle(ReachQuery(sources, targets, use_cache=False))
        with DSRClient(host, port) as client:
            wired = client.query(sources, targets, use_cache=False)
        assert engine.choose_direction(sources, targets, "auto") == expected
        assert run.trace.attrs["direction"] == expected
        assert handled.direction == expected
        assert wired.direction == expected
        truth = reachable_pairs(engine.graph, sources, targets)
        assert run.pairs == handled.pair_set == wired.pair_set == truth

    def test_explicit_direction_passes_through(self, engine):
        planner = QueryPlanner(engine)
        for direction in ("forward", "backward"):
            plan = planner.plan(ReachQuery((0, 1), (2,), direction=direction))
            assert plan.direction == direction
            assert engine.choose_direction((0, 1), (2,), direction) == direction

    def test_auto_without_backward_index_stays_forward(self, forward_only_engine):
        vertices = sorted(forward_only_engine.graph.vertices())
        query = ReachQuery(vertices[:30], vertices[30:32], trace=True)
        assert QueryPlanner(forward_only_engine).plan(query).direction == "forward"
        run = forward_only_engine.run(query)
        assert run.trace.attrs["direction"] == "forward"

    def test_backward_without_index_still_raises(self, forward_only_engine):
        query = ReachQuery((0, 1), (2,), direction="backward")
        assert QueryPlanner(forward_only_engine).plan(query).direction == "backward"
        with pytest.raises(RuntimeError, match="enable_backward"):
            forward_only_engine.run(query)
        service = DSRService(forward_only_engine, num_workers=1)
        try:
            response = service.handle(query)
        finally:
            service.close()
        assert isinstance(response, ErrorResponse)

    def test_invalid_direction_rejected(self, engine):
        with pytest.raises(ValueError):
            QueryPlanner(engine).plan(ReachQuery((0,), (1,), direction="sideways"))


class TestBatching:
    """There is none: a plan is a direction plus the request's whole,
    normalised vertex sets, at any size."""

    def test_small_query_is_one_batch(self, engine):
        plan = QueryPlanner(engine).plan(ReachQuery((1, 0, 1), (3, 2)))
        assert (plan.sources, plan.targets) == ((0, 1), (2, 3))

    def test_large_query_is_one_batch_too(self, engine):
        vertices = sorted(engine.graph.vertices())
        sources, targets = vertices[:70], vertices[60:135]  # 5250 pairs
        plan = QueryPlanner(engine).plan(ReachQuery(sources[::-1] + sources[:3], targets))
        assert plan.sources == tuple(sources)
        assert plan.targets == tuple(targets)
        assert not plan.is_empty

    def test_empty_query_yields_empty_plan(self, engine):
        assert QueryPlanner(engine).plan(ReachQuery((), (1, 2))).is_empty

    def test_invalid_budget_rejected(self, engine):
        # The batching budget is gone; naming it fails loudly.
        with pytest.raises(TypeError):
            QueryPlanner(engine, max_batch_pairs=0)


class TestPlanningIsLockFree:
    def test_plan_never_builds_a_csr_snapshot(self, engine, monkeypatch):
        # Planning runs outside the service's engine lock, so building a
        # snapshot there would race concurrent updates (the build iterates
        # the live adjacency dicts).
        def refuse(graph):
            raise AssertionError("planning built a CSR snapshot")

        monkeypatch.setattr(DiGraph, "csr", refuse)
        plan = QueryPlanner(engine).plan(ReachQuery((0, 1, 2), (3, 4)))
        assert plan.direction == "backward"


class TestReachQueryPlanning:
    """The planner takes the unified query object, and only that."""

    def test_plan_accepts_reach_query(self, engine):
        planner = QueryPlanner(engine)
        plan = planner.plan(ReachQuery((0, 1), (2,), direction="forward"))
        assert plan.direction == "forward"
        assert (plan.sources, plan.targets) == ((0, 1), (2,))

    def test_positional_form_rejected(self, engine):
        planner = QueryPlanner(engine)
        with pytest.raises(TypeError):
            planner.plan([0, 1], [2])
        with pytest.raises(TypeError):
            planner.plan([0, 1])

    def test_reach_query_plus_targets_rejected(self, engine):
        with pytest.raises(TypeError):
            QueryPlanner(engine).plan(ReachQuery((0,), (1,)), [2])

    def test_empty_reach_query_yields_empty_plan(self, engine):
        assert QueryPlanner(engine).plan(ReachQuery((), (1,))).is_empty
