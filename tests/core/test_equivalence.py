"""Tests for forward/backward equivalence sets (Definition 5, Algorithm 3)."""

import pytest

from repro.core.equivalence import (
    BACKWARD,
    FORWARD,
    EquivalenceClass,
    class_id,
    compute_backward_classes,
    compute_forward_classes,
    singleton_classes,
)
from repro.graph import generators
from repro.graph.traversal import bfs_reachable_set


def class_member_sets(classes):
    return {frozenset(cls.members) for cls in classes}


class TestEquivalenceClassDataclass:
    def test_representative_must_be_member(self):
        with pytest.raises(ValueError):
            EquivalenceClass(1, 0, FORWARD, frozenset({2, 3}), representative=9)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            EquivalenceClass(1, 0, "sideways", frozenset({2}), representative=2)

    def test_len_and_message_size(self):
        cls = EquivalenceClass(1, 0, FORWARD, frozenset({2, 3}), representative=2)
        assert len(cls) == 2
        assert cls.message_size() > 0


class TestClassIds:
    def test_a_class_id_is_named_by_its_representative_and_kind(self):
        assert class_id(0, FORWARD) == -1
        assert class_id(0, BACKWARD) == -2
        assert class_id(7, FORWARD) == -15
        classes = singleton_classes([5, 3], 0, BACKWARD)
        assert [cls.class_id for cls in classes] == [class_id(3, BACKWARD), class_id(5, BACKWARD)]


class TestPaperExampleClasses:
    """Example 5 of the paper pins the equivalence sets of Figure 1."""

    def test_partition2_forward_classes(self, paper_example):
        graph, partitioning, labels = paper_example
        local = partitioning.local_subgraph(1)
        classes = compute_forward_classes(
            local,
            partitioning.in_boundaries(1),
            partitioning.out_boundaries(1),
            partition_id=1,
        )
        member_labels = {
            frozenset(graph.label_of(member) for member in cls.members)
            for cls in classes
        }
        assert member_labels == {frozenset({"c", "h"}), frozenset({"g"})}

    def test_partition3_forward_classes(self, paper_example):
        graph, partitioning, labels = paper_example
        local = partitioning.local_subgraph(2)
        classes = compute_forward_classes(
            local,
            partitioning.in_boundaries(2),
            partitioning.out_boundaries(2),
            partition_id=2,
        )
        member_labels = {
            frozenset(graph.label_of(member) for member in cls.members)
            for cls in classes
        }
        assert member_labels == {frozenset({"m", "n"})}

    def test_partition1_backward_classes(self, paper_example):
        graph, partitioning, labels = paper_example
        local = partitioning.local_subgraph(0)
        classes = compute_backward_classes(
            local,
            partitioning.in_boundaries(0),
            partitioning.out_boundaries(0),
            partition_id=0,
        )
        member_labels = {
            frozenset(graph.label_of(member) for member in cls.members)
            for cls in classes
        }
        assert member_labels == {frozenset({"b", "e"})}


class TestEquivalenceSemantics:
    """Members of a class must be indistinguishable per Definition 5."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_forward_members_reach_same_non_boundary_vertices(self, seed):
        graph = generators.random_digraph(60, 170, seed=seed)
        from repro.partition.partition import make_partitioning

        partitioning = make_partitioning(graph, 3, strategy="hash", seed=seed)
        for pid in range(3):
            local = partitioning.local_subgraph(pid)
            in_b = partitioning.in_boundaries(pid)
            out_b = partitioning.out_boundaries(pid)
            classes = compute_forward_classes(
                local, in_b, out_b, pid
            )
            for cls in classes:
                reach_sets = {
                    member: bfs_reachable_set(local, member) - in_b
                    for member in cls.members
                }
                reference = next(iter(reach_sets.values()))
                for reached in reach_sets.values():
                    assert reached == reference

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_members_reached_by_same_vertices(self, seed):
        graph = generators.random_digraph(60, 170, seed=10 + seed)
        from repro.partition.partition import make_partitioning

        partitioning = make_partitioning(graph, 3, strategy="hash", seed=seed)
        for pid in range(3):
            local = partitioning.local_subgraph(pid)
            reverse = local.reverse()
            in_b = partitioning.in_boundaries(pid)
            out_b = partitioning.out_boundaries(pid)
            classes = compute_backward_classes(
                local, in_b, out_b, pid
            )
            for cls in classes:
                reach_sets = {
                    member: bfs_reachable_set(reverse, member) - out_b
                    for member in cls.members
                }
                reference = next(iter(reach_sets.values()))
                for reached in reach_sets.values():
                    assert reached == reference

    def test_classes_partition_the_candidates(self):
        graph = generators.web_graph(150, avg_degree=5, seed=4)
        from repro.partition.partition import make_partitioning

        partitioning = make_partitioning(graph, 4, strategy="hash", seed=1)
        for pid in range(4):
            in_b = partitioning.in_boundaries(pid)
            out_b = partitioning.out_boundaries(pid)
            classes = compute_forward_classes(
                partitioning.local_subgraph(pid), in_b, out_b, pid
            )
            covered = [member for cls in classes for member in cls.members]
            assert sorted(covered) == sorted(in_b - out_b)

    def test_overlap_vertices_never_classified(self):
        graph = generators.random_digraph(50, 200, seed=5)
        from repro.partition.partition import make_partitioning

        partitioning = make_partitioning(graph, 3, strategy="hash", seed=2)
        for pid in range(3):
            in_b = partitioning.in_boundaries(pid)
            out_b = partitioning.out_boundaries(pid)
            overlap = in_b & out_b
            local = partitioning.local_subgraph(pid)
            forward = compute_forward_classes(local, in_b, out_b, pid)
            backward = compute_backward_classes(local, in_b, out_b, pid)
            for cls in forward + backward:
                assert not (set(cls.members) & overlap)


class TestSingletonClasses:
    def test_one_class_per_member(self):
        classes = singleton_classes([5, 3, 3], 0, BACKWARD)
        assert len(classes) == 2
        assert class_member_sets(classes) == {frozenset({3}), frozenset({5})}

    def test_empty_input(self):
        assert singleton_classes([], 0, FORWARD) == []
