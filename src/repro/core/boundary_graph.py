"""Boundary-graph construction (Definition 4).

The boundary graph ``G^B_i`` for partition ``G_i`` merges the static cut ``C``
with the transitive boundary reachability ``I_j ⇝ O_j`` of every *other*
partition ``G_j``.  Without the equivalence-set optimisation every reachable
``(b, o)`` member pair becomes an explicit edge (the definition verbatim);
with it, the transitive part is a minimum equivalent graph routed through
virtual class vertices — same reachability, a fraction of the edges.

:func:`boundary_graph_parts` is the one definition of ``G^B_i``'s vertices
and edges: the compound graph ``G^C_i`` (:mod:`repro.core.compound_graph`)
is those parts plus the local subgraph, assembled straight into a CSR
snapshot.  The boundary graph as a graph of its own exists because the paper
reports its size with and without the equivalence optimisation (Table 4) and
because building it in isolation makes the index logic much easier to test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Tuple

from repro.core.summary import PartitionSummary
from repro.graph.csr import CSRGraph


@dataclass
class BoundaryGraphStats:
    """Size statistics of a boundary graph (Table 4)."""

    num_vertices: int
    num_edges: int
    num_forward_entries: int
    num_backward_entries: int


def boundary_graph_parts(
    partition_id: int,
    summaries: Mapping[int, PartitionSummary],
    cut_edges: Iterable[Tuple[int, int]],
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """``(vertices, edges)`` of ``G^B_i``: every *other* summary's
    :meth:`~repro.core.summary.PartitionSummary.graph_contribution` plus the
    cut.  Fresh lists (callers extend them); duplicates are left for the
    graph constructor to collapse."""
    vertices: List[int] = []
    edges: List[Tuple[int, int]] = []
    for other_id, summary in summaries.items():
        if other_id == partition_id:
            continue
        summary_vertices, summary_edges = summary.graph_contribution()
        vertices.extend(summary_vertices)
        edges.extend(summary_edges)
    edges.extend(cut_edges)
    return vertices, edges


def build_boundary_graph(
    partition_id: int,
    summaries: Mapping[int, PartitionSummary],
    cut_edges: Iterable[Tuple[int, int]],
) -> CSRGraph:
    """Build ``G^B_i``: the cut plus every *other* partition's summary.

    A snapshot, not a ``DiGraph``: class ids are negative
    (:func:`repro.core.equivalence.class_id`), which a ``DiGraph`` refuses.
    """
    vertices, edges = boundary_graph_parts(partition_id, summaries, cut_edges)
    return CSRGraph.from_edges(vertices, edges)


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
    graph = CSRGraph.from_edges(*boundary_graph_parts(partition_id, summaries, cut_edges))
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
