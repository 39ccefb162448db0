"""Router fingerprinting, workload histogram and routing determinism.

The routing-determinism tests pin the property the fleet's whole adaptation
story rests on: a *seeded* skewed workload pushed through two independently
built fleets produces byte-identical routing — same per-query replica choice,
same route counts, and (after a retune) the same pinned routing table.
"""

import random

import pytest

from repro.api import DSRConfig, ReachQuery
from repro.fleet import (
    QueryRouter,
    ReplicaFleet,
    WorkloadHistogram,
    fingerprint_query,
    size_bucket,
)
from repro.graph import generators


def make_fleet(seed=5, vertices=150, strategies=("msbfs", "ferrari", "closure")):
    graph = generators.social_graph(vertices, avg_degree=4, seed=seed)
    return ReplicaFleet.from_config(
        graph,
        DSRConfig(num_partitions=3, replicas=list(strategies), seed=seed),
    )


def skewed_workload(graph, count=60, seed=13):
    """A deterministic multi-tenant workload: mostly tiny, some huge."""
    rng = random.Random(seed)
    verts = sorted(graph.vertices())
    queries = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.7:
            shape, tenant = (1, 1), "pointwise"
        elif roll < 0.9:
            shape, tenant = (64, 16), "analytics"
        else:
            shape, tenant = (8, 8), None
        queries.append(
            ReachQuery(
                tuple(rng.sample(verts, shape[0])),
                tuple(rng.sample(verts, shape[1])),
                tenant=tenant,
            )
        )
    return queries


class TestFingerprint:
    def test_size_buckets_are_log2(self):
        assert [size_bucket(n) for n in (0, 1, 2, 3, 4, 5, 64, 100)] == [
            0, 1, 2, 2, 3, 3, 7, 7,
        ]

    def test_fingerprint_uses_shape_not_ids(self):
        a = ReachQuery((1, 2), (9,), tenant="t")
        b = ReachQuery((40, 80), (3,), tenant="t")
        assert fingerprint_query(a) == fingerprint_query(b)

    def test_fingerprint_fields(self):
        query = ReachQuery((1, 2, 3), (4,), direction="forward", tenant="crm")
        assert fingerprint_query(query) == ("crm", "forward", 2, 1)

    def test_missing_tenant_normalises_to_empty(self):
        assert fingerprint_query(ReachQuery((1,), (2,)))[0] == ""


class TestWorkloadHistogram:
    def test_records_accumulate_weight(self):
        histogram = WorkloadHistogram()
        fp = ("", "auto", "auto", 1, 1)
        for _ in range(5):
            histogram.record(fp, 1, 1)
        (cls,) = histogram.snapshot()
        assert cls.weight == pytest.approx(5.0)
        assert (cls.num_sources, cls.num_targets) == (1, 1)

    def test_decay_evicts_stale_classes(self):
        histogram = WorkloadHistogram(decay=0.1, decay_every=10)
        stale = ("old", "auto", "auto", 1, 1)
        histogram.record(stale, 1, 1)
        fresh = ("new", "auto", "auto", 3, 3)
        # 2 sweeps at 0.1 decay drive the stale bin under the drop threshold.
        for _ in range(20):
            histogram.record(fresh, 5, 5)
        fingerprints = [cls.fingerprint for cls in histogram.snapshot()]
        assert stale not in fingerprints
        assert fresh in fingerprints

    def test_max_classes_eviction_is_deterministic(self):
        def run():
            histogram = WorkloadHistogram(max_classes=3, decay_every=50)
            rng = random.Random(3)
            for _ in range(200):
                tenant = f"t{rng.randrange(8)}"
                histogram.record((tenant, "auto", "auto", 1, 1), 1, 1)
            return [cls.fingerprint for cls in histogram.snapshot()]

        assert run() == run()
        assert len(run()) <= 3

    def test_snapshot_order_is_sorted(self):
        histogram = WorkloadHistogram()
        histogram.record(("b", "auto", "auto", 1, 1), 1, 1)
        histogram.record(("a", "auto", "auto", 1, 1), 1, 1)
        assert [c.fingerprint[0] for c in histogram.snapshot()] == ["a", "b"]

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            WorkloadHistogram(decay=0.0)


class TestEstimateQueryCost:
    """The stable public costing contract the router is built on."""

    @pytest.fixture(scope="class")
    def fleet(self):
        fleet = make_fleet()
        yield fleet
        fleet.close()

    def test_empty_query_costs_zero(self, fleet):
        planner = fleet.primary.planner
        assert planner.estimate_query_cost(ReachQuery((), (1,))) == 0.0

    def test_cost_is_finite_deterministic_and_positive(self, fleet):
        planner = fleet.primary.planner
        query = ReachQuery((1, 2, 3), (4, 5))
        first = planner.estimate_query_cost(query)
        assert first > 0.0
        assert first == planner.estimate_query_cost(query)

    def test_local_index_override_changes_price(self, fleet):
        planner = fleet.primary.planner
        tiny = ReachQuery((1,), (2,))
        assert planner.estimate_query_cost(
            tiny, local_index="closure"
        ) < planner.estimate_query_cost(tiny, local_index="dfs")

    def test_shared_frontier_wins_large_root_sets(self, fleet):
        planner = fleet.primary.planner
        verts = sorted(fleet.graph.vertices())
        huge = ReachQuery(tuple(verts[:128]), tuple(verts[:8]))
        assert planner.estimate_query_cost(
            huge, local_index="msbfs"
        ) < planner.estimate_query_cost(huge, local_index="closure")

    def test_unknown_strategy_rejected(self, fleet):
        with pytest.raises(ValueError, match="unknown"):
            fleet.primary.planner.estimate_query_cost(
                ReachQuery((1,), (2,)), local_index="btree"
            )

    def test_router_never_reads_planner_internals(self):
        """The router's only costing dependency is the public method."""
        import inspect

        from repro.fleet import router as router_module

        source = inspect.getsource(router_module)
        assert "_entry_stats" not in source
        assert "_edge_factor" not in source
        assert "estimate_query_cost" in source


class TestRouting:
    def test_routing_is_deterministic_across_runs(self):
        """Same seeded skewed workload, two fresh fleets → same routing."""

        def run():
            fleet = make_fleet()
            try:
                choices = [
                    fleet.route(query).replica.replica_id
                    for query in skewed_workload(fleet.graph)
                ]
                fleet.retune()
                return choices, fleet.router.route_counts(), fleet.router.routing_table()
            finally:
                fleet.close()

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_heterogeneous_workload_spreads_over_replicas(self):
        fleet = make_fleet()
        try:
            for query in skewed_workload(fleet.graph, count=80):
                fleet.route(query)
            used = [rid for rid, n in fleet.router.route_counts().items() if n]
            assert len(used) >= 2, "a skewed workload should use several replicas"
        finally:
            fleet.close()

    def test_pinned_table_overrides_argmin(self):
        fleet = make_fleet()
        try:
            query = ReachQuery((1,), (2,), tenant="pin")
            baseline = fleet.router.route(query, record=False)
            override = (baseline.replica.replica_id + 1) % len(fleet.replicas)
            fleet.router.install_table({baseline.fingerprint: override})
            decision = fleet.router.route(query, record=False)
            assert decision.table_hit
            assert decision.replica.replica_id == override
            assert decision.best_cost <= decision.routed_cost
            assert decision.cost_gap >= 0.0
        finally:
            fleet.close()

    def test_install_table_drops_invalid_replica_indices(self):
        fleet = make_fleet()
        try:
            fleet.router.install_table({("", "auto", "auto", 1, 1): 99})
            assert fleet.router.routing_table() == {}
        finally:
            fleet.close()

    def test_router_requires_replicas(self):
        with pytest.raises(ValueError):
            QueryRouter([])

    def test_record_false_skips_histogram_and_counts(self):
        fleet = make_fleet()
        try:
            fleet.router.route(ReachQuery((1,), (2,)), record=False)
            assert fleet.router.histogram.num_records == 0
            assert all(n == 0 for n in fleet.router.route_counts().values())
        finally:
            fleet.close()
