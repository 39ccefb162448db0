"""DSR query evaluation on the paper's running example (Examples 2, 3, 7-9)."""

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine


@pytest.fixture(params=[True, False], ids=["with-eq", "no-eq"])
def engine(request, paper_example):
    graph, partitioning, labels = paper_example
    engine = open_engine(
        graph,
        DSRConfig(use_equivalence=request.param),
        partitioning=partitioning,
    )
    return engine, labels


def as_labels(graph, pairs):
    return {(graph.label_of(s), graph.label_of(t)) for s, t in pairs}


class TestSingleReachability:
    def test_example2_d_reaches_q(self, engine):
        eng, labels = engine
        assert eng.reachable(labels["d"], labels["q"])

    def test_example7_b_reaches_f_across_partitions(self, engine):
        eng, labels = engine
        assert eng.reachable(labels["b"], labels["f"])

    def test_example8_a_reaches_q(self, engine):
        eng, labels = engine
        assert eng.reachable(labels["a"], labels["q"])

    def test_non_reachable_pair(self, engine):
        eng, labels = engine
        # k is a sink inside G2; it cannot reach anything else.
        assert not eng.reachable(labels["k"], labels["a"])

    def test_self_reachability(self, engine):
        eng, labels = engine
        assert eng.reachable(labels["v"], labels["v"])


class TestSetReachability:
    def test_example3_query(self, engine, paper_example):
        graph, _, _ = paper_example
        eng, labels = engine
        sources = [labels[x] for x in ("a", "d", "g")]
        targets = [labels[x] for x in ("l", "p")]
        pairs = eng.run(ReachQuery(sources, targets)).pairs
        assert as_labels(graph, pairs) == {
            ("a", "l"),
            ("a", "p"),
            ("d", "l"),
            ("d", "p"),
            ("g", "l"),
            ("g", "p"),
        }

    def test_example9_query(self, engine, paper_example):
        graph, _, _ = paper_example
        eng, labels = engine
        sources = [labels[x] for x in ("d", "l", "p")]
        targets = [labels[x] for x in ("a", "k", "q")]
        pairs = eng.run(ReachQuery(sources, targets)).pairs
        assert as_labels(graph, pairs) == {
            (s, t) for s in ("d", "l", "p") for t in ("a", "k", "q")
        }

    def test_boundary_vertices_as_targets(self, engine, paper_example):
        graph, _, _ = paper_example
        eng, labels = engine
        # Targets m, n, o, i are boundary vertices of remote partitions.
        pairs = eng.run(ReachQuery(
            [labels["a"], labels["d"]],
            [labels["m"], labels["n"], labels["o"], labels["i"]],
        )).pairs
        expected = {
            (s, t)
            for s in ("a", "d")
            for t in ("m", "n", "o", "i")
        }
        assert as_labels(graph, pairs) == expected

    def test_boundary_vertices_as_sources(self, engine, paper_example):
        graph, _, _ = paper_example
        eng, labels = engine
        pairs = eng.run(ReachQuery([labels["i"], labels["o"]], [labels["k"], labels["q"]])).pairs
        assert as_labels(graph, pairs) == {("i", "k"), ("i", "q"), ("o", "k"), ("o", "q")}

    def test_empty_result(self, engine, paper_example):
        graph, _, _ = paper_example
        eng, labels = engine
        pairs = eng.run(ReachQuery([labels["k"], labels["v"]], [labels["a"]])).pairs
        assert pairs == set()

    def test_unknown_vertex_rejected(self, engine):
        eng, labels = engine
        with pytest.raises(ValueError):
            eng.run(ReachQuery([10_000], [labels["a"]])).pairs


class TestCommunicationGuarantee:
    """The core claim: one communication round resolves any DSR query."""

    def test_single_round(self, engine, paper_example):
        graph, _, _ = paper_example
        eng, labels = engine
        result = eng.run(ReachQuery(
            [labels[x] for x in ("a", "d", "g")], [labels[x] for x in ("l", "p")]
        ))
        assert result.rounds == 1

    def test_local_query_needs_no_messages(self, engine, paper_example):
        graph, _, _ = paper_example
        eng, labels = engine
        result = eng.run(ReachQuery([labels["d"]], [labels["b"]]))
        assert result.rounds == 1
        assert result.messages_sent == 0
        assert (labels["d"], labels["b"]) in result.pairs
