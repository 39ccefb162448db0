"""Oracle parity of the packed query pipeline.

The one query path — packed rows from kernel to wire — must answer every
query exactly like the independent ``reachable_pairs`` oracle: across every
executor backend (the matrix honours ``REPRO_TEST_EXECUTORS``), in both
processing directions, through every registered backend, and on the
handle-expansion edge cases (overlap vertices are kept member-level; class
handles expand to representatives).
"""

import os
import random

import pytest

from repro.api import DSRConfig, ReachQuery, available_backends, open_engine
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs

EXECUTORS = tuple(
    name.strip()
    for name in os.environ.get(
        "REPRO_TEST_EXECUTORS", "serial,processes,tcp"
    ).split(",")
    if name.strip()
)


def _random_queries(graph, count, size, seed):
    rng = random.Random(seed)
    vertices = sorted(graph.vertices())
    queries = []
    for _ in range(count):
        queries.append(
            (
                tuple(rng.sample(vertices, min(size, len(vertices)))),
                tuple(rng.sample(vertices, min(size, len(vertices)))),
            )
        )
    return queries


@pytest.mark.parametrize("executor", EXECUTORS)
class TestBitsSetsParityAcrossExecutors:
    """The packed pipeline equals the oracle on every executor.

    (Named for the bits-vs-sets comparison these cases were written as; the
    set pipeline is gone and the oracle is the reference.)
    """

    def test_forward_parity(self, executor):
        graph = generators.social_graph(220, avg_degree=5, seed=17)
        engine = open_engine(
            graph,
            DSRConfig(num_partitions=4, local_index="msbfs", executor=executor),
        )
        try:
            for sources, targets in _random_queries(graph, 6, 8, seed=23):
                result = engine.run(ReachQuery(sources, targets))
                assert result.pairs == reachable_pairs(graph, sources, targets)
                assert result.rounds == 1
        finally:
            engine.close()

    def test_backward_parity(self, executor):
        graph = generators.social_graph(180, avg_degree=4, seed=29)
        engine = open_engine(
            graph,
            DSRConfig(
                num_partitions=3,
                local_index="msbfs",
                executor=executor,
                enable_backward=True,
            ),
        )
        try:
            for sources, targets in _random_queries(graph, 4, 6, seed=31):
                reference = reachable_pairs(graph, sources, targets)
                for direction in ("forward", "backward"):
                    pairs = engine.run(
                        ReachQuery(sources, targets, direction=direction)
                    ).pairs
                    assert pairs == reference, f"{direction} diverges"
        finally:
            engine.close()

    def test_parity_survives_updates(self, executor):
        graph = generators.social_graph(150, avg_degree=4, seed=37)
        engine = open_engine(
            graph,
            DSRConfig(num_partitions=3, local_index="msbfs", executor=executor),
        )
        try:
            query_args = _random_queries(graph, 3, 10, seed=41)
            edges = list(graph.edges())[:5]
            for u, v in edges:
                engine.delete_edge(u, v)
            for sources, targets in query_args:
                result = engine.run(ReachQuery(sources, targets))
                assert result.pairs == reachable_pairs(graph, sources, targets)
            for u, v in edges:
                engine.insert_edge(u, v)
            for sources, targets in query_args:
                result = engine.run(ReachQuery(sources, targets))
                assert result.pairs == reachable_pairs(graph, sources, targets)
        finally:
            engine.close()


class TestHandleExpansionEdgeCases:
    """Overlap vertices stay member-level through the packed wire."""

    def _overlap_graph(self):
        # Hash partitioning over 3 parts assigns v -> v % 3.  Partition 1
        # holds {1, 4, 7, 10, 13, 16}: vertex 4 is an in-boundary (0 -> 4),
        # vertex 7 an *overlap* vertex (in via 2 -> 7, out via 7 -> 5, so it
        # must stay member-level in the summary), and 13/16 are pure
        # interior targets reachable only through the handle exchange.
        # Partition 2 mirrors the shape with interior targets 11/14.
        return DiGraph.from_edges(
            [
                (0, 4), (4, 13), (13, 16),          # into p1, interior chain
                (2, 7), (7, 5), (7, 13),            # overlap vertex 7
                (1, 4), (4, 10), (10, 16),          # intra-p1 fan
                (0, 3), (3, 6), (6, 4),             # intra-p0 path to the cut
                (5, 8), (8, 11), (11, 14),          # interior chain in p2
                (9, 0),                             # back-edge into p0
            ]
        )

    def test_overlap_and_interior_targets(self):
        graph = self._overlap_graph()
        engine = open_engine(
            graph, DSRConfig(num_partitions=3, partitioner="hash", local_index="msbfs")
        )
        vertices = tuple(sorted(graph.vertices()))
        result = engine.run(ReachQuery(vertices, vertices))
        assert result.pairs == reachable_pairs(graph, vertices, vertices)
        # Sanity: the workload really exercised the handle exchange.
        assert result.messages_sent > 0

    def test_without_equivalence_member_level_wire(self):
        graph = self._overlap_graph()
        engine = open_engine(
            graph,
            DSRConfig(
                num_partitions=3,
                partitioner="hash",
                local_index="msbfs",
                use_equivalence=False,
            ),
        )
        vertices = tuple(sorted(graph.vertices()))
        result = engine.run(ReachQuery(vertices, vertices))
        assert result.pairs == reachable_pairs(graph, vertices, vertices)

    def test_packed_wire_ships_fewer_bytes(self, monkeypatch):
        from repro.cluster.message import payload_size
        from repro.cluster.network import Network
        from repro.reachability.packed import iter_bits, row_from_bytes

        sent = []
        real_send = Network.send

        def recording_send(self, source, destination, payload, tag="data"):
            if tag == "handles":
                sent.append(payload)
            return real_send(self, source, destination, payload, tag=tag)

        monkeypatch.setattr(Network, "send", recording_send)
        graph = generators.social_graph(200, avg_degree=5, seed=43)
        engine = open_engine(graph, DSRConfig(num_partitions=4, local_index="msbfs"))
        sources = tuple(sorted(graph.vertices()))[:40]
        targets = tuple(sorted(graph.vertices()))[-40:]
        result = engine.run(ReachQuery(sources, targets))
        assert result.pairs == reachable_pairs(graph, sources, targets)
        assert sent and result.bytes_sent == sum(payload_size(p) for p in sent)
        # The same content as ``{source: [handle, ...]}`` id lists — what the
        # wire carried before handle rows were packed — costs more.
        id_list_bytes = 0
        for payload in sent:
            per_source = {}
            for handle_bytes, row_sources in payload.items():
                handles = list(iter_bits(row_from_bytes(handle_bytes)))
                for source in row_sources:
                    per_source.setdefault(source, []).extend(handles)
            id_list_bytes += payload_size(per_source)
        assert result.bytes_sent < id_list_bytes


class TestCrossBackendParity:
    """Every registered backend answers like the packed DSR pipeline."""

    def test_all_backends_agree_with_bits(self):
        graph = generators.random_digraph(90, 260, seed=47)
        partitions = 3
        queries = _random_queries(graph, 3, 6, seed=53)
        dsr = open_engine(
            graph, DSRConfig(num_partitions=partitions, local_index="msbfs")
        )
        reference = [dsr.run(ReachQuery(s, t)).pairs for s, t in queries]
        for index, (sources, targets) in enumerate(queries):
            assert reference[index] == reachable_pairs(graph, sources, targets)
        for backend in available_backends():
            engine = open_engine(
                graph, DSRConfig(backend=backend, num_partitions=partitions)
            )
            for index, (sources, targets) in enumerate(queries):
                result = engine.run(ReachQuery(sources, targets))
                assert result.pairs == reference[index], (
                    f"backend {backend} diverges from packed DSR"
                )


class TestVertexInsertKeepsMasksFresh:
    """The flush that publishes an isolated vertex shifts its partition's
    vertex-rank numbering; the packed handle masks and targets must follow
    the new numbering."""

    def test_bits_query_after_insert_vertex(self):
        # Spaced ids so an inserted vertex (15) shifts every later rank.
        edges = [(u, u + 10) for u in range(10, 600, 10)]
        edges += [(600, 10), (50, 250), (250, 450)]
        graph = DiGraph.from_edges(edges)
        engine = open_engine(
            graph, DSRConfig(num_partitions=3, partitioner="hash", local_index="msbfs")
        )
        vertices = tuple(sorted(graph.vertices()))
        query = ReachQuery(vertices[:20], vertices[-20:])
        before = engine.run(query).pairs
        assert before == reachable_pairs(graph, vertices[:20], vertices[-20:])
        # A non-maximal id: once published, ranks >= rank(15) all shift.
        engine.insert_vertex(vertex=15)
        result = engine.run(query)
        assert result.epoch == 1
        assert result.pairs == before
