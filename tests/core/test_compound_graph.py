"""Tests for compound graphs (Definition 6) and Theorem 1."""

import pytest

from repro.core.compound_graph import CondensedReachability, build_compound_graph
from repro.core.summary import build_partition_summary
from repro.graph import generators
from repro.graph.traversal import is_reachable
from repro.partition.partition import make_partitioning
from repro.reachability.transitive_closure import TransitiveClosureIndex


def build_all(graph, partitioning, use_equivalence=True):
    summaries = {
        pid: build_partition_summary(
            partition_id=pid,
            local_graph=partitioning.local_subgraph(pid),
            in_boundaries=partitioning.in_boundaries(pid),
            out_boundaries=partitioning.out_boundaries(pid),
            use_equivalence=use_equivalence,
        )
        for pid in range(partitioning.num_partitions)
    }
    compounds = {
        pid: build_compound_graph(
            pid,
            partitioning.local_subgraph(pid),
            summaries,
            partitioning.cut_edges(),
        )
        for pid in range(partitioning.num_partitions)
    }
    return summaries, compounds


class TestCondensedReachability:
    def test_matches_uncompressed_reachability(self):
        graph = generators.social_graph(120, avg_degree=6, reciprocity=0.4, seed=2)
        condensed = CondensedReachability(graph)
        truth = TransitiveClosureIndex(graph)
        vrank = condensed.vertex_rank
        targets = range(5, 120, 13)
        rows = condensed.set_reachability_rows(range(0, 120, 11), vrank.pack(targets))
        for s, row in rows.items():
            reached = set(vrank.unpack(row))
            for t in targets:
                assert (t in reached) == truth.reachable(s, t)

    def test_set_reachability_interface(self):
        graph = generators.cycle_graph(6)
        condensed = CondensedReachability(graph)
        vrank = condensed.vertex_rank
        rows = condensed.set_reachability_rows([0, 3], vrank.pack([2, 5]))
        assert set(vrank.unpack(rows[0])) == {2, 5}
        assert set(vrank.unpack(rows[3])) == {2, 5}

    def test_unknown_vertices_ignored(self):
        graph = generators.path_graph(4)
        condensed = CondensedReachability(graph)
        mask = condensed.vertex_rank.pack([0, 77])
        assert condensed.set_reachability_rows([77], mask) == {77: 0}

    def test_dag_smaller_than_original_for_cyclic_graph(self):
        graph = generators.social_graph(200, avg_degree=8, reciprocity=0.6, seed=3)
        condensed = CondensedReachability(graph)
        assert condensed.dag_num_vertices < graph.num_vertices
        assert condensed.dag_num_edges < graph.num_edges


class TestCompoundGraphConstruction:
    def test_contains_local_subgraph(self, paper_example):
        graph, partitioning, labels = paper_example
        _, compounds = build_all(graph, partitioning)
        compound = compounds[0]
        local = partitioning.local_subgraph(0)
        for u, v in local.edges():
            assert v in compound.graph.successors(u)
        assert compound.local_vertices == set(local.vertices())

    def test_contains_cut_edges(self, paper_example):
        graph, partitioning, labels = paper_example
        _, compounds = build_all(graph, partitioning)
        for pid in range(3):
            for u, v in partitioning.cut_edges():
                assert v in compounds[pid].graph.successors(u)

    def test_remote_handles_registered(self, paper_example):
        graph, partitioning, labels = paper_example
        summaries, compounds = build_all(graph, partitioning)
        compound = compounds[0]
        assert set(compound.remote_forward_handles) == {1, 2}
        assert compound.forward_handles_of(1) == summaries[1].forward_handles()
        assert compound.forward_handles_of(0) == set()

    def test_paper_example7_theorem1(self, paper_example):
        """b ⇝ f is not answerable inside G1 but is on the compound graph."""
        graph, partitioning, labels = paper_example
        _, compounds = build_all(graph, partitioning)
        local = partitioning.local_subgraph(0)
        assert not is_reachable(local, labels["b"], labels["f"])
        vrank = compounds[0].vertex_rank
        rows = compounds[0].local_set_reachability_rows(
            [labels["b"]], vrank.pack([labels["f"]])
        )
        assert vrank.unpack(rows[labels["b"]]) == [labels["f"]]

    @pytest.mark.parametrize("use_equivalence", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_theorem1_local_pairs_on_random_graphs(self, use_equivalence, seed):
        """Reachability between two co-located vertices needs only G^C_i."""
        graph = generators.random_digraph(60, 170, seed=seed)
        partitioning = make_partitioning(graph, 3, strategy="hash", seed=seed)
        _, compounds = build_all(graph, partitioning, use_equivalence)
        truth = TransitiveClosureIndex(graph)
        for pid in range(3):
            local_vertices = sorted(partitioning.vertices_of(pid))[:8]
            compound = compounds[pid]
            vrank = compound.vertex_rank
            rows = compound.local_set_reachability_rows(
                local_vertices, vrank.pack(local_vertices)
            )
            for s in local_vertices:
                reached = set(vrank.unpack(rows[s]))
                for t in local_vertices:
                    assert (t in reached) == truth.reachable(s, t), (
                        f"seed={seed} pid={pid} {s}->{t}"
                    )

    def test_compound_graph_soundness(self):
        """Every edge of a compound graph reflects true global reachability."""
        graph = generators.random_digraph(50, 150, seed=7)
        partitioning = make_partitioning(graph, 3, strategy="hash", seed=7)
        summaries, compounds = build_all(graph, partitioning)
        truth = TransitiveClosureIndex(graph)
        class_info = {}
        for summary in summaries.values():
            for cls in list(summary.forward_classes) + list(summary.backward_classes):
                class_info[cls.class_id] = cls
        for compound in compounds.values():
            for u, v in compound.graph.edges():
                concrete_u = (
                    class_info[u].members if u in class_info else [u]
                )
                concrete_v = (
                    class_info[v].members if v in class_info else [v]
                )
                # At least one concrete pair behind the edge must be truly
                # reachable; for class-level edges the equivalence guarantees
                # they then all are.
                assert any(
                    truth.reachable(cu, cv)
                    for cu in concrete_u
                    for cv in concrete_v
                )

    def test_size_statistics(self, paper_example):
        graph, partitioning, labels = paper_example
        _, compounds = build_all(graph, partitioning)
        compound = compounds[0]
        assert compound.original_num_edges() > 0
        assert compound.dag_num_edges() <= compound.original_num_edges()
        assert compound.estimated_bytes() > 0

    @pytest.mark.parametrize(
        "make_graph, max_edges",
        [
            (lambda: generators.web_graph(1000, 5.5, seed=7), 6_000),
            (lambda: generators.dag(2000, 8000, seed=7), 10_000),
        ],
        ids=["web_graph", "dag"],
    )
    def test_compound_graphs_stay_near_data_graph_size(self, make_graph, max_edges):
        """Summaries are minimum equivalent graphs, not closures: on the
        benchmark graphs (4 metis partitions) a compound graph used to carry
        95–121k edges (web graph) and 18–38k (DAG)."""
        graph = make_graph()
        partitioning = make_partitioning(graph, 4, strategy="metis", seed=0)
        _, compounds = build_all(graph, partitioning)
        for compound in compounds.values():
            assert compound.original_num_edges() <= max_edges
