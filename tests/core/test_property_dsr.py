"""Property-based tests: the DSR protocol always matches ground truth.

These are the strongest correctness tests in the suite: hypothesis generates
arbitrary small graphs, partitionings and queries, and the full distributed
pipeline (summaries → compound graphs → one-round query) must return exactly
the reachable pairs of a plain traversal on the unpartitioned graph.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs
from repro.partition.partition import GraphPartitioning

NUM_VERTICES = 12

graph_strategy = st.lists(
    st.tuples(st.integers(0, NUM_VERTICES - 1), st.integers(0, NUM_VERTICES - 1)),
    min_size=0,
    max_size=50,
)
assignment_strategy = st.lists(
    st.integers(0, 2), min_size=NUM_VERTICES, max_size=NUM_VERTICES
)
query_strategy = st.tuples(
    st.sets(st.integers(0, NUM_VERTICES - 1), min_size=1, max_size=4),
    st.sets(st.integers(0, NUM_VERTICES - 1), min_size=1, max_size=4),
)


def build_engine(edges, assignment_list, use_equivalence):
    graph = DiGraph.from_edges(edges, vertices=range(NUM_VERTICES))
    assignment = {vertex: assignment_list[vertex] for vertex in range(NUM_VERTICES)}
    partitioning = GraphPartitioning(graph, assignment, 3)
    engine = open_engine(
        graph,
        DSRConfig(local_index="dfs", use_equivalence=use_equivalence),
        partitioning=partitioning,
    )
    return graph, engine


@given(edges=graph_strategy, assignment=assignment_strategy, query=query_strategy)
@settings(max_examples=60, deadline=None)
def test_dsr_with_equivalence_matches_ground_truth(edges, assignment, query):
    graph, engine = build_engine(edges, assignment, use_equivalence=True)
    sources, targets = query
    assert engine.run(ReachQuery(sources, targets)).pairs == reachable_pairs(graph, sources, targets)


@given(edges=graph_strategy, assignment=assignment_strategy, query=query_strategy)
@settings(max_examples=60, deadline=None)
def test_dsr_without_equivalence_matches_ground_truth(edges, assignment, query):
    graph, engine = build_engine(edges, assignment, use_equivalence=False)
    sources, targets = query
    assert engine.run(ReachQuery(sources, targets)).pairs == reachable_pairs(graph, sources, targets)


@given(edges=graph_strategy, assignment=assignment_strategy, query=query_strategy)
@settings(max_examples=30, deadline=None)
def test_single_round_guarantee(edges, assignment, query):
    _, engine = build_engine(edges, assignment, use_equivalence=True)
    sources, targets = query
    result = engine.run(ReachQuery(sources, targets))
    assert result.rounds == 1


@given(edges=graph_strategy, assignment=assignment_strategy, query=query_strategy)
@settings(max_examples=30, deadline=None)
def test_equivalence_setting_never_changes_answers(edges, assignment, query):
    graph, with_eq = build_engine(edges, assignment, use_equivalence=True)
    _, without_eq = build_engine(edges, assignment, use_equivalence=False)
    sources, targets = query
    assert with_eq.run(ReachQuery(sources, targets)).pairs == without_eq.run(ReachQuery(sources, targets)).pairs


@given(
    edges=graph_strategy,
    assignment=assignment_strategy,
    update=st.tuples(st.integers(0, NUM_VERTICES - 1), st.integers(0, NUM_VERTICES - 1)),
    query=query_strategy,
)
@settings(max_examples=40, deadline=None)
def test_incremental_insertion_matches_rebuilt_index(edges, assignment, update, query):
    graph, engine = build_engine(edges, assignment, use_equivalence=True)
    u, v = update
    if u != v:
        engine.insert_edge(u, v)
        graph_after = DiGraph.from_edges(
            list(set(edges) | {(u, v)}), vertices=range(NUM_VERTICES)
        )
    else:
        graph_after = graph
    sources, targets = query
    assert engine.run(ReachQuery(sources, targets)).pairs == reachable_pairs(
        graph_after, sources, targets
    )
