"""Tests for per-partition summaries and boundary graphs (Definitions 4/5)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boundary_graph import boundary_graph_stats, build_boundary_graph
from repro.core.equivalence import ClassIdAllocator
from repro.core.summary import build_partition_summary
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.traversal import bfs_reachable_set, is_reachable
from repro.partition.partition import GraphPartitioning, make_partitioning


def make_summary(partitioning, pid, use_equivalence, allocator=None):
    return build_partition_summary(
        partition_id=pid,
        local_graph=partitioning.local_subgraph(pid),
        in_boundaries=partitioning.in_boundaries(pid),
        out_boundaries=partitioning.out_boundaries(pid),
        allocator=allocator or ClassIdAllocator(100_000),
        use_equivalence=use_equivalence,
    )


class TestSummaryWithoutEquivalence:
    def test_member_edges_are_exact_reachability(self):
        graph = generators.random_digraph(60, 180, seed=1)
        partitioning = make_partitioning(graph, 3, strategy="hash", seed=1)
        for pid in range(3):
            local = partitioning.local_subgraph(pid)
            summary = make_summary(partitioning, pid, use_equivalence=False)
            in_b = partitioning.in_boundaries(pid)
            out_b = partitioning.out_boundaries(pid)
            expected = {
                (b, o)
                for b in in_b
                for o in out_b
                if b != o and is_reachable(local, b, o)
            }
            assert summary.member_edges == expected
            assert summary.class_edges == set()
            assert summary.forward_classes == []

    def test_handles_are_raw_boundaries(self):
        graph = generators.random_digraph(50, 150, seed=2)
        partitioning = make_partitioning(graph, 3, strategy="hash", seed=2)
        summary = make_summary(partitioning, 0, use_equivalence=False)
        assert summary.forward_handles() == set(partitioning.in_boundaries(0))
        assert summary.backward_handles() == set(partitioning.out_boundaries(0))


class TestSummaryWithEquivalence:
    def test_paper_example_partition2(self, paper_example):
        graph, partitioning, labels = paper_example
        summary = make_summary(partitioning, 1, use_equivalence=True)
        # Forward classes {c, h} and {g}; backward class {i}.
        forward_members = {
            frozenset(graph.label_of(m) for m in cls.members)
            for cls in summary.forward_classes
        }
        backward_members = {
            frozenset(graph.label_of(m) for m in cls.members)
            for cls in summary.backward_classes
        }
        assert forward_members == {frozenset({"c", "h"}), frozenset({"g"})}
        assert backward_members == {frozenset({"i"})}
        # All of c, g, h reach i, so both forward classes connect to the
        # backward class of i.
        assert len(summary.class_edges) == 2

    def test_expand_handle(self, paper_example):
        graph, partitioning, labels = paper_example
        summary = make_summary(partitioning, 1, use_equivalence=True)
        for cls in summary.forward_classes:
            assert summary.expand_handle(cls.class_id) == (cls.representative,)
        # Unknown handles expand to themselves (overlap/member handles).
        assert summary.expand_handle(labels["i"]) == (labels["i"],)

    def test_class_compression_reduces_transitive_edges(self):
        graph = generators.web_graph(250, avg_degree=7, seed=3)
        partitioning = make_partitioning(graph, 4, strategy="hash", seed=3)
        allocator = ClassIdAllocator(1_000_000)
        for pid in range(4):
            plain = make_summary(partitioning, pid, use_equivalence=False)
            optimised = make_summary(partitioning, pid, True, allocator)
            # Class + member + connector edges never exceed the fully
            # materialised member-level pairs by more than the in/in additions.
            in_b = partitioning.in_boundaries(pid)
            assert len(optimised.class_edges) <= len(plain.member_edges) + 1
            assert optimised.forward_handles() != set() or not in_b

    def test_handles_include_overlap(self):
        graph = generators.random_digraph(40, 220, seed=5)
        partitioning = make_partitioning(graph, 3, strategy="hash", seed=5)
        for pid in range(3):
            summary = make_summary(partitioning, pid, use_equivalence=True)
            overlap = summary.overlap
            assert overlap <= summary.forward_handles()
            assert overlap <= summary.backward_handles()

    def test_empty_partition_summary(self):
        graph = generators.path_graph(4)
        partitioning = make_partitioning(graph, 1, strategy="hash")
        summary = make_summary(partitioning, 0, use_equivalence=True)
        assert summary.forward_handles() == set()
        assert summary.num_transitive_edges() == 0

    def test_message_size_positive(self, paper_example):
        _, partitioning, _ = paper_example
        summary = make_summary(partitioning, 2, use_equivalence=True)
        assert summary.message_size() > 0


# ---------------------------------------------------------------------- #
# the stored summary graph has exactly the closure's reachability
# ---------------------------------------------------------------------- #
NUM_VERTICES = 12
_pair = st.tuples(st.integers(0, NUM_VERTICES - 1), st.integers(0, NUM_VERTICES - 1))

#: Edges only run from lower to higher ids: every in-boundary is its own group.
dag_edges = st.lists(_pair, max_size=40).map(
    lambda edges: [(min(u, v), max(u, v)) for u, v in edges if u != v]
)
#: A few explicit cycles plus sparse glue: groups of mutually reachable
#: in-boundaries, chained.
scc_rich_edges = st.tuples(
    st.lists(
        st.lists(st.integers(0, NUM_VERTICES - 1), min_size=2, max_size=5, unique=True),
        max_size=4,
    ),
    st.lists(_pair, max_size=15),
).map(
    lambda parts: [
        edge for cycle in parts[0] for edge in zip(cycle, cycle[1:] + cycle[:1])
    ]
    + parts[1]
)
#: Dense: under a random assignment most vertices are both in- and
#: out-boundaries, so classes are rare and overlap-only groups common.
overlap_heavy_edges = st.lists(_pair, min_size=30, max_size=70)


@given(
    edges=st.one_of(dag_edges, scc_rich_edges, overlap_heavy_edges),
    assignment=st.lists(
        st.integers(0, 2), min_size=NUM_VERTICES, max_size=NUM_VERTICES
    ),
)
@settings(max_examples=150, deadline=None)
def test_summary_graph_reachability_equals_local_reachability(edges, assignment):
    graph = DiGraph.from_edges(edges, vertices=range(NUM_VERTICES))
    partitioning = GraphPartitioning(graph, dict(enumerate(assignment)), 3)
    allocator = ClassIdAllocator(NUM_VERTICES)
    for pid in range(3):
        local = partitioning.local_subgraph(pid)
        summary = make_summary(partitioning, pid, True, allocator)
        summary_vertices, summary_edges = summary.graph_contribution()
        stored = DiGraph.from_edges(summary_edges, summary_vertices)
        boundary = summary.boundary_vertices
        for source in summary.in_boundaries:
            reached = bfs_reachable_set(stored, source)
            assert reached & boundary == {
                target for target in boundary if is_reachable(local, source, target)
            }
            # A forward-class vertex is entered through its members only.
            for cls in summary.forward_classes:
                assert (cls.class_id in reached) == any(
                    is_reachable(local, source, member) for member in cls.members
                )


class TestBoundaryGraph:
    def test_definition4_membership(self, paper_example):
        graph, partitioning, labels = paper_example
        summaries = {
            pid: make_summary(partitioning, pid, use_equivalence=False)
            for pid in range(3)
        }
        boundary = build_boundary_graph(0, summaries, partitioning.cut_edges())
        # Every cut edge is present.
        for u, v in partitioning.cut_edges():
            assert boundary.has_edge(u, v)
        # Transitive edges of *other* partitions are present (c ⇝ i in G2).
        assert boundary.has_edge(labels["c"], labels["i"])
        assert boundary.has_edge(labels["m"], labels["o"])
        # Partition 0's own transitive information is excluded.
        assert not boundary.has_edge(labels["d"], labels["b"])

    def test_equivalence_shrinks_entries(self):
        graph = generators.web_graph(300, avg_degree=7, seed=6)
        partitioning = make_partitioning(graph, 4, strategy="hash", seed=6)
        allocator = ClassIdAllocator(1_000_000)
        plain = {
            pid: make_summary(partitioning, pid, use_equivalence=False)
            for pid in range(4)
        }
        optimised = {
            pid: make_summary(partitioning, pid, True, allocator) for pid in range(4)
        }
        plain_stats = boundary_graph_stats(0, plain, partitioning.cut_edges())
        opt_stats = boundary_graph_stats(0, optimised, partitioning.cut_edges())
        assert opt_stats.num_forward_entries <= plain_stats.num_forward_entries
        assert opt_stats.num_backward_entries <= plain_stats.num_backward_entries


class TestSummaryMemoisation:
    """Derived maps are built once per summary (they used to rebuild per call)."""

    def test_member_to_class_maps_are_memoised(self):
        graph = generators.random_digraph(60, 180, seed=5)
        partitioning = make_partitioning(graph, 3, strategy="hash", seed=5)
        summary = make_summary(partitioning, 0, use_equivalence=True)
        forward = summary.member_to_forward_class()
        backward = summary.member_to_backward_class()
        assert summary.member_to_forward_class() is forward
        assert summary.member_to_backward_class() is backward
        # Content still matches a fresh rebuild from the classes.
        assert forward == {
            member: cls.class_id
            for cls in summary.forward_classes
            for member in cls.members
        }
        assert backward == {
            member: cls.class_id
            for cls in summary.backward_classes
            for member in cls.members
        }

    def test_expand_handle_memoised_table_matches_scan(self):
        graph = generators.random_digraph(60, 180, seed=6)
        partitioning = make_partitioning(graph, 3, strategy="hash", seed=6)
        summary = make_summary(partitioning, 1, use_equivalence=True)
        for cls in list(summary.forward_classes) + list(summary.backward_classes):
            assert summary.expand_handle(cls.class_id) == (cls.representative,)
        # Member handles (e.g. overlap vertices) expand to themselves.
        for member in summary.overlap:
            assert summary.expand_handle(member) == (member,)
        assert summary.expand_handle(123456789) == (123456789,)

    def test_forward_handle_order_is_sorted_and_stable(self):
        graph = generators.random_digraph(50, 150, seed=7)
        partitioning = make_partitioning(graph, 3, strategy="hash", seed=7)
        summary = make_summary(partitioning, 2, use_equivalence=True)
        order = summary.forward_handle_order()
        assert order == tuple(sorted(summary.forward_handles()))
        assert summary.forward_handle_order() is order
