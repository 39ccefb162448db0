"""Tests for the service query planner (direction choice)."""

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.service.planner import QueryPlanner


@pytest.fixture(scope="module")
def engine():
    graph = generators.web_graph(140, avg_degree=5, seed=11)
    engine = open_engine(
        graph,
        DSRConfig(num_partitions=4, local_index="msbfs", seed=2, enable_backward=True),
    )
    return engine


@pytest.fixture(scope="module")
def forward_only_engine():
    graph = generators.random_digraph(60, 160, seed=5)
    engine = open_engine(graph, DSRConfig(num_partitions=3, seed=1))
    return engine


class TestDirectionChoice:
    def test_explicit_direction_is_honoured(self, engine):
        planner = QueryPlanner(engine)
        assert planner.plan([0, 1], [2], direction="forward").direction == "forward"
        assert planner.plan([0, 1], [2], direction="backward").direction == "backward"

    def test_auto_prefers_cheaper_side(self, engine):
        planner = QueryPlanner(engine)
        vertices = sorted(engine.graph.vertices())
        few_targets = planner.plan(vertices[:40], vertices[40:42])
        assert few_targets.direction == "backward"
        few_sources = planner.plan(vertices[:2], vertices[2:42])
        assert few_sources.direction == "forward"

    def test_auto_without_backward_index_stays_forward(self, forward_only_engine):
        planner = QueryPlanner(forward_only_engine)
        vertices = sorted(forward_only_engine.graph.vertices())
        plan = planner.plan(vertices[:30], vertices[30:32])
        assert plan.direction == "forward"
        assert "not available" in plan.reason

    def test_invalid_direction_rejected(self, engine):
        with pytest.raises(ValueError):
            QueryPlanner(engine).plan([0], [1], direction="sideways")


class TestBatching:
    """There is none: a plan is a direction plus the request's whole,
    normalised vertex sets, at any size."""

    def test_small_query_is_one_batch(self, engine):
        plan = QueryPlanner(engine).plan([1, 0, 1], [3, 2])
        assert (plan.sources, plan.targets) == ((0, 1), (2, 3))

    def test_large_query_is_one_batch_too(self, engine):
        vertices = sorted(engine.graph.vertices())
        sources, targets = vertices[:70], vertices[60:135]  # 5250 pairs
        plan = QueryPlanner(engine).plan(sources[::-1] + sources[:3], targets)
        assert plan.sources == tuple(sources)
        assert plan.targets == tuple(targets)
        assert not plan.is_empty

    def test_empty_query_yields_empty_plan(self, engine):
        plan = QueryPlanner(engine).plan([], [1, 2])
        assert plan.is_empty
        assert plan.estimated_cost == 0.0

    def test_invalid_budget_rejected(self, engine):
        # The batching budget is gone; naming it fails loudly.
        with pytest.raises(TypeError):
            QueryPlanner(engine, max_batch_pairs=0)


class TestCostModel:
    """The cost model reads CSR degree stats without ever building snapshots."""

    def test_plan_never_builds_a_csr_snapshot(self, engine):
        # Planning runs outside the service's engine lock, so triggering a
        # snapshot build there would race concurrent updates (the build
        # iterates the live adjacency dicts).  The planner must only *peek*.
        engine.graph._invalidate_csr()
        assert engine.graph.csr_if_cached() is None
        QueryPlanner(engine).plan([0, 1, 2], [3, 4])
        assert engine.graph.csr_if_cached() is None

    def test_cached_snapshot_and_counter_fallback_agree(self, engine):
        planner = QueryPlanner(engine)
        engine.graph._invalidate_csr()
        fallback = planner._edge_factor()
        engine.graph.csr()  # warm the snapshot (as a lock holder would)
        from_snapshot = planner._edge_factor()
        assert from_snapshot == pytest.approx(fallback)

    def test_edge_factor_scales_traversal_side_only(self, engine):
        planner = QueryPlanner(engine)
        factor = planner._edge_factor()
        assert factor > 1.0
        # Doubling the traversal-side cardinality must raise the cost by
        # more than doubling the collection side (the edge factor applies
        # to the traversal term only).
        base = planner.estimate_cost(10, 10, "forward")
        more_sources = planner.estimate_cost(20, 10, "forward")
        more_targets = planner.estimate_cost(10, 20, "forward")
        assert more_sources - base > more_targets - base


class TestReachQueryPlanning:
    """The planner accepts the unified query object directly."""

    def test_plan_accepts_reach_query(self, engine):
        planner = QueryPlanner(engine)
        plan = planner.plan(ReachQuery((0, 1), (2,), direction="forward"))
        assert plan.direction == "forward"
        assert (plan.sources, plan.targets) == ((0, 1), (2,))

    def test_reach_query_plus_targets_rejected(self, engine):
        with pytest.raises(TypeError):
            QueryPlanner(engine).plan(ReachQuery((0,), (1,)), [2])

    def test_empty_reach_query_yields_empty_plan(self, engine):
        assert QueryPlanner(engine).plan(ReachQuery((), (1,))).is_empty
