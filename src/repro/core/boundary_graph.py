"""Boundary-graph construction (Definition 4).

The boundary graph ``G^B_i`` for partition ``G_i`` merges the static cut ``C``
with the transitive boundary reachability ``I_j ⇝ O_j`` of every *other*
partition ``G_j``.  Without the equivalence-set optimisation every reachable
``(b, o)`` member pair becomes an explicit edge (the definition verbatim);
with it, the transitive part is a minimum equivalent graph routed through
virtual class vertices — same reachability, a fraction of the edges.

The boundary graph is not used directly at query time (the compound graph
subsumes it); it exists as its own artefact because the paper reports its size
with and without the equivalence optimisation (Table 4) and because building
it in isolation makes the index logic much easier to test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Tuple

from repro.core.summary import PartitionSummary
from repro.graph.digraph import DiGraph


@dataclass
class BoundaryGraphStats:
    """Size statistics of a boundary graph (Table 4)."""

    num_vertices: int
    num_edges: int
    num_forward_entries: int
    num_backward_entries: int


def add_summary_to_graph(graph: DiGraph, summary: PartitionSummary) -> None:
    """Add one remote partition's summary (vertices + edges) to ``graph``."""
    for vertex in summary.boundary_vertices:
        graph.add_vertex(vertex)
    if summary.use_equivalence:
        member_to_forward = summary.member_to_forward_class()
        member_to_backward = summary.member_to_backward_class()
        for cls in summary.forward_classes:
            graph.add_vertex(cls.class_id)
        for cls in summary.backward_classes:
            graph.add_vertex(cls.class_id)
        # Connectors: member -> its forward class, backward class -> member.
        for member, class_id in member_to_forward.items():
            graph.add_edge(member, class_id)
        for member, class_id in member_to_backward.items():
            graph.add_edge(class_id, member)
    for source, target in summary.class_edges:
        graph.add_edge(source, target)
    for source, target in summary.member_edges:
        graph.add_edge(source, target)


def build_boundary_graph(
    partition_id: int,
    summaries: Mapping[int, PartitionSummary],
    cut_edges: Iterable[Tuple[int, int]],
) -> DiGraph:
    """Build ``G^B_i``: the cut plus every *other* partition's summary."""
    graph = DiGraph()
    for u, v in cut_edges:
        graph.add_edge(u, v)
    for other_id, summary in summaries.items():
        if other_id == partition_id:
            continue
        add_summary_to_graph(graph, summary)
    return graph


def boundary_graph_stats(
    partition_id: int,
    summaries: Mapping[int, PartitionSummary],
    cut_edges: Iterable[Tuple[int, int]],
) -> BoundaryGraphStats:
    """Size statistics of ``G^B_i`` plus forward/backward entry counts.

    The forward (backward) entry count is the number of distinct entry (exit)
    handles contributed by the other partitions — the quantity Table 4 reports
    as ``#forward; #backward``.
    """
    graph = build_boundary_graph(partition_id, summaries, cut_edges)
    forward_entries = 0
    backward_entries = 0
    for other_id, summary in summaries.items():
        if other_id == partition_id:
            continue
        forward_entries += len(summary.forward_handles())
        backward_entries += len(summary.backward_handles())
    return BoundaryGraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        num_forward_entries=forward_entries,
        num_backward_entries=backward_entries,
    )
