"""DSRService over a ReplicaFleet: routed reads, fan-out writes, races.

The executor for the service-level tests honours ``REPRO_TEST_EXECUTORS``
(first entry), so the CI ``fleet`` job exercises the process backend.
"""

import os
import random
import threading

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.service import (
    DSRAsyncServer,
    DSRService,
    ErrorResponse,
    QueryRequest,
    StatsRequest,
    UpdateRequest,
)
from repro.service.server import DSRClient

FLEET_EXECUTOR = os.environ.get("REPRO_TEST_EXECUTORS", "serial").split(",")[0].strip()


def make_service(graph, epoch_flush="inline", **service_kwargs):
    fleet = open_engine(
        graph,
        DSRConfig(
            num_partitions=3,
            replicas=3,
            seed=9,
            executor=FLEET_EXECUTOR,
            epoch_flush=epoch_flush,
        ),
    )
    return DSRService(fleet, **service_kwargs), fleet


@pytest.fixture
def graph():
    return generators.social_graph(200, avg_degree=4, seed=9)


def sample_queries(graph, count=20, seed=31):
    rng = random.Random(seed)
    verts = sorted(graph.vertices())
    return [
        (
            tuple(rng.sample(verts, rng.choice([1, 2, 32]))),
            tuple(rng.sample(verts, rng.choice([1, 8]))),
        )
        for _ in range(count)
    ]


def structural_edge(graph):
    """An absent edge whose insert genuinely changes reachability."""
    verts = sorted(graph.vertices())
    return next(
        (u, v)
        for u in verts for v in (verts[-1], verts[-2], verts[-3])
        if u != v
        and not graph.has_edge(u, v)
        and not reachable_pairs(graph, (u,), (v,))
    )


class TestRoutedServing:
    def test_concurrent_queries_stay_exact(self, graph):
        service, fleet = make_service(graph, num_workers=4)
        try:
            queries = sample_queries(graph)
            futures = [
                service.submit(QueryRequest(s, t, tenant="load"))
                for s, t in queries
            ]
            for future, (sources, targets) in zip(futures, queries):
                response = future.result()
                assert not isinstance(response, ErrorResponse), response
                assert set(response.pairs) == reachable_pairs(
                    graph, sources, targets
                )
        finally:
            service.close()
            fleet.close()

    def test_stats_expose_the_fleet_section(self, graph):
        service, fleet = make_service(graph, num_workers=2)
        try:
            service.handle(QueryRequest((1,), (2,)))
            stats = service.stats()
            assert "fleet" in stats
            assert len(stats["fleet"]["replicas"]) == 3
            assert stats["fleet"]["routes"] == 1
            assert stats["epoch"] == fleet.epoch
        finally:
            service.close()
            fleet.close()

    def test_structural_update_invalidates_the_cache(self, graph):
        service, fleet = make_service(graph, num_workers=2)
        try:
            u, v = structural_edge(graph)
            first = service.handle(QueryRequest((u,), (v,)))
            assert set(first.pairs) == set()
            update = service.handle(UpdateRequest("insert-edge", u, v))
            assert update.structural_change
            answer = service.handle(QueryRequest((u,), (v,)))
            assert not answer.cached
            assert set(answer.pairs) == {(u, v)}
        finally:
            service.close()
            fleet.close()

    def test_fleet_metrics_reach_the_exposition(self, graph):
        service, fleet = make_service(graph, num_workers=2)
        try:
            service.handle(QueryRequest((1,), (2,)))
            text = service.metrics_text()
            assert "dsr_fleet_route_total" in text
            assert "dsr_fleet_replicas" in text
        finally:
            service.close()
            fleet.close()


class TestRebuildRace:
    def test_queries_survive_a_background_strategy_rebuild(self, graph):
        """In-flight queries never fail or stale while a replica re-specialises."""
        service, fleet = make_service(graph, epoch_flush="background", num_workers=4)
        try:
            queries = sample_queries(graph, count=15)
            expected = {
                (s, t): reachable_pairs(graph, s, t) for s, t in queries
            }
            errors = []

            def hammer():
                for sources, targets in queries:
                    response = service.handle(
                        QueryRequest(sources, targets, use_cache=False)
                    )
                    if isinstance(response, ErrorResponse):
                        errors.append(response)
                        return
                    if set(response.pairs) != expected[(sources, targets)]:
                        errors.append((sources, targets, response.pairs))
                        return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            # Re-specialise a replica mid-flight: the rebuild publishes a new
            # epoch under the readers through the epoch-swap machinery.
            assert fleet.replicas[1].rebuild_to("grail", background=True)
            for thread in threads:
                thread.join(timeout=120.0)
            assert not errors, errors[:3]
            assert fleet.replicas[1].wait_for_rebuild(timeout=60.0)
            assert fleet.replicas[1].strategy == "grail"
            assert fleet.replicas[1].rebuild_error is None
            # And the rebuilt replica still answers exactly.
            for (sources, targets), truth in list(expected.items())[:5]:
                result = fleet.replicas[1].engine.run(
                    ReachQuery(sources, targets)
                )
                assert set(result.pairs) == truth
        finally:
            service.close()
            fleet.close()

    def test_retune_during_traffic_never_blocks_reads(self, graph):
        service, fleet = make_service(graph, epoch_flush="background", num_workers=4)
        try:
            queries = sample_queries(graph, count=10)
            for sources, targets in queries:
                service.handle(QueryRequest(sources, targets, tenant="point"))
            result = fleet.retune()
            assert result.applied
            for sources, targets in queries:
                response = service.handle(
                    QueryRequest(sources, targets, use_cache=False)
                )
                assert not isinstance(response, ErrorResponse), response
                assert set(response.pairs) == reachable_pairs(
                    graph, sources, targets
                )
            assert fleet.wait_for_maintenance(timeout=60.0)
        finally:
            service.close()
            fleet.close()


class TestSocketTransport:
    def test_tenants_and_fleet_stats_travel_the_wire(self, graph):
        service, fleet = make_service(graph, num_workers=2)
        server = DSRAsyncServer(service).start_in_thread()
        try:
            host, port = server.address
            with DSRClient(host, port) as client:
                response = client.request(
                    QueryRequest((1,), (2,), tenant="wire")
                )
                assert not isinstance(response, ErrorResponse), response
                stats = client.request(StatsRequest()).stats
                assert "fleet" in stats
                tenants = {
                    cls[0]
                    for cls in (
                        c.fingerprint
                        for c in fleet.router.histogram.snapshot()
                    )
                }
                assert "wire" in tenants
        finally:
            server.stop_from_thread()
            service.close()
            fleet.close()
