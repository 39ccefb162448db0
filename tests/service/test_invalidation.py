"""Cache invalidation under incremental updates (the staleness contract).

Cached query answers must be dropped/refreshed after ``insert_edge``,
``delete_edge`` and ``delete_vertex`` — including updates that are only
*batched* in the :class:`IncrementalMaintainer` and not yet flushed — while
provably harmless updates leave the cache warm.
"""

import pytest

from repro.api import DSRConfig, open_engine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.service import DSRService, QueryRequest
from repro.service.cache import ResultCache


def build_service(**kwargs):
    graph = generators.social_graph(220, avg_degree=5, seed=9)
    engine = open_engine(graph, DSRConfig(num_partitions=3, local_index="msbfs", seed=4))
    return graph, engine, DSRService(engine, num_workers=2, **kwargs)


@pytest.fixture
def served():
    graph, engine, service = build_service()
    yield graph, engine, service
    service.close()


def warm(service, sources, targets):
    """Query twice; the second answer must come from the cache."""
    request = QueryRequest(tuple(sources), tuple(targets))
    first = service.handle(request)
    second = service.handle(request)
    assert second.cached
    assert first.pair_set == second.pair_set
    return request, first.pair_set


class TestInvalidationOnUpdates:
    def test_insert_edge_drops_cached_result(self, served):
        graph, engine, service = served
        vertices = sorted(graph.vertices())
        sources, targets = vertices[:6], vertices[100:106]
        request, before = warm(service, sources, targets)

        # Connect a source to a target it could not reach: the new edge is a
        # structural insertion and the cached answer must change.
        missing = [
            (s, t) for s in sources for t in targets if (s, t) not in before
        ]
        assert missing, "query already fully connected; pick a different fixture"
        u, v = missing[0]
        result = engine.insert_edge(u, v)
        assert result.structural_change
        response = service.handle(request)
        assert not response.cached
        assert (u, v) in response.pair_set
        assert response.pair_set == reachable_pairs(graph, sources, targets)

    def test_delete_edge_drops_cached_result(self, served):
        graph, engine, service = served
        vertices = sorted(graph.vertices())
        sources, targets = vertices[:6], vertices[100:106]
        request, before = warm(service, sources, targets)

        engine.delete_edge(*next(iter(graph.edges())))
        response = service.handle(request)
        assert not response.cached
        assert response.pair_set == reachable_pairs(graph, sources, targets)

    def test_delete_vertex_drops_cached_result(self, served):
        graph, engine, service = served
        vertices = sorted(graph.vertices())
        sources, targets = vertices[:6], vertices[100:106]
        request, _ = warm(service, sources, targets)

        # Delete a vertex that is in neither S nor T; paths through it may
        # still vanish, so the cached entry must go regardless.
        victim = vertices[50]
        engine.delete_vertex(victim)
        response = service.handle(request)
        assert not response.cached
        assert response.pair_set == reachable_pairs(graph, sources, targets)

    def test_batched_updates_invalidate_before_flush(self, served):
        """Updates queued in the maintainer (no flush yet) already invalidate."""
        graph, engine, service = served
        vertices = sorted(graph.vertices())
        sources, targets = vertices[:5], vertices[80:85]
        request, _ = warm(service, sources, targets)

        engine.insert_edge(sources[1], targets[1])
        engine.insert_edge(sources[2], targets[2])
        engine.delete_edge(*next(iter(graph.edges())))
        assert engine.has_pending_updates  # still batched, nothing flushed
        assert len(service.cache) == 0

        # The service query triggers the engine's own flush-before-query and
        # returns the post-update answer.
        response = service.handle(request)
        assert not response.cached
        assert not engine.has_pending_updates
        assert response.pair_set == reachable_pairs(graph, sources, targets)
        assert {(sources[1], targets[1]), (sources[2], targets[2])} <= response.pair_set

    def test_explicit_flush_of_dirty_maintainer_clears_late_attached_cache(self):
        """A cache attached after updates were queued is cleared at flush."""
        graph, engine, _service = build_service()
        _service.close()
        # Queue a guaranteed epoch first: a brand-new cut edge is in every
        # compound graph, whether or not it changes a boundary set.
        new_edge = next(
            (u, v)
            for u in sorted(graph.vertices())
            for v in sorted(graph.vertices())
            if u != v
            and not graph.has_edge(u, v)
            and engine.partitioning.partition_of(u)
            != engine.partitioning.partition_of(v)
        )
        result = engine.insert_edge(*new_edge)
        assert result.structural_change
        late_cache = ResultCache(capacity=8)
        late_cache.attach(engine.maintainer)
        late_cache.put([1], [2], {(1, 2)})
        engine.flush_updates()
        assert len(late_cache) == 0
        assert late_cache.stats.flushes_observed == 1
        late_cache.detach()


def boundary_cut_edge(graph, partitioning):
    """A new cut edge between an existing out- and in-boundary: it changes
    no boundary set, so its flush re-summarises no partition."""
    cut = partitioning.cut_edges()
    outs, ins = {u for u, _ in cut}, {v for _, v in cut}
    return next(
        (u, v)
        for u in sorted(outs)
        for v in sorted(ins)
        if partitioning.partition_of(u) != partitioning.partition_of(v)
        and not graph.has_edge(u, v)
    )


@pytest.mark.parametrize("invalidate_on", ["update", "flush"])
def test_a_cut_only_epoch_clears_the_cache(invalidate_on):
    graph, engine, service = build_service()
    service.close()
    cache = ResultCache(capacity=8)
    cache.attach(engine.maintainer, invalidate_on=invalidate_on)
    try:
        cache.put([1], [2], {(1, 2)})
        assert engine.insert_edge(*boundary_cut_edge(graph, engine.partitioning)).structural_change
        flush = engine.flush_updates()
        assert flush.published and flush.refreshed_partitions == set()
        assert len(cache) == 0
        assert cache.stats.flushes_observed == 1
    finally:
        cache.detach()
        engine.close()


class TestPreciseNonInvalidation:
    def test_duplicate_edge_insert_keeps_cache(self, served):
        graph, engine, service = served
        vertices = sorted(graph.vertices())
        sources, targets = vertices[:6], vertices[100:106]
        request, _ = warm(service, sources, targets)

        engine.insert_edge(*next(iter(graph.edges())))  # already present
        assert service.handle(request).cached

    def test_missing_edge_delete_keeps_cache(self, served):
        graph, engine, service = served
        vertices = sorted(graph.vertices())
        sources, targets = vertices[:6], vertices[100:106]
        request, _ = warm(service, sources, targets)

        engine.delete_edge(vertices[0], vertices[0])  # no self-loop exists
        assert service.handle(request).cached

    def test_isolated_vertex_insert_keeps_cache(self, served):
        graph, engine, service = served
        vertices = sorted(graph.vertices())
        sources, targets = vertices[:6], vertices[100:106]
        request, _ = warm(service, sources, targets)

        engine.insert_vertex()
        assert service.handle(request).cached

    def test_same_scc_edge_insert_keeps_cache(self, served):
        graph, engine, service = served
        # Find a *new* intra-partition edge whose endpoints already sit in the
        # same SCC of the compound graph: the paper's provably-neutral
        # insertion (Section 3.3.3).
        candidate = None
        for pid, compound in engine.index.compound_graphs.items():
            components = compound.reachability.vertex_to_component
            by_component = {}
            for vertex in engine.partitioning.vertices_of(pid):
                by_component.setdefault(components.get(vertex), []).append(vertex)
            for component, members in by_component.items():
                if component is None or len(members) < 2:
                    continue
                for u in members:
                    for w in members:
                        if u != w and not graph.has_edge(u, w):
                            candidate = (u, w)
                            break
                    if candidate:
                        break
                if candidate:
                    break
            if candidate:
                break
        if candidate is None:
            pytest.skip("graph has no same-SCC non-edge inside one partition")
        u, w = candidate
        vertices = sorted(graph.vertices())
        request, _ = warm(service, vertices[:6], vertices[100:106])

        result = engine.insert_edge(u, w)
        assert not result.structural_change
        response = service.handle(request)
        assert response.cached
        assert response.pair_set == reachable_pairs(
            graph, vertices[:6], vertices[100:106]
        )
