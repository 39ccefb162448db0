"""Compound graphs ``G^C_i`` (Definition 6) and their query-time runtime.

The compound graph of partition ``G_i`` is the union of the local subgraph
with the boundary graph ``G^B_i``.  Theorem 1 of the paper shows that any
reachability question between two vertices of ``V_i`` can be answered on
``G^C_i`` alone; Theorem 2 shows that a cross-partition question needs only
one message from the source's slave to the target's slave.

Soundness / completeness of the label-free compression used here
-----------------------------------------------------------------

With the equivalence optimisation (the default) a remote partition ``G_j``
enters a compound graph as the *minimum equivalent graph* of its boundary
reachability (see :mod:`repro.core.summary`), not as the closure Definition 4
spells out: one cycle per group of mutually reachable in-boundaries plus the
transitive reduction between groups and onto the class vertices — exactly
the closure's reachability from every in-boundary, in a fraction of the
edges.  Theorems 1 and 2 quantify over *paths* in ``G^C_i``, never over
single edges, so they hold verbatim.  (``use_equivalence=False`` keeps the
closure pairs, and the argument below degenerates to "by construction".)

Every edge inserted into a compound graph corresponds to true reachability in
the global data graph (local edges and cut edges trivially; a cycle through
mutually reachable in-boundaries and a reduction edge between two such
groups by construction; an edge out of a forward class because all its
members have identical local reachability over ``V_j \\ I_j`` plus the
overlap; an edge into a backward class because all its members are reached
by identical vertex sets), hence any path found in ``G^C_i`` implies global
reachability (**soundness**).

Conversely, take any global path and cut it into maximal segments that lie
inside a single partition.  Segments inside ``G_i`` are present verbatim;
a segment inside a remote partition ``G_j`` leads from an in-boundary ``x``
to a boundary vertex ``y`` it reaches locally, and the summary of ``G_j``
has an ``x ⇝ y`` path by the defining property of an equivalent graph
(through ``ν(y)`` when ``y`` is a classified out-boundary); consecutive
segments are joined by the cut edges, which are present verbatim
(**completeness**).  A forward-class vertex ``υ`` is entered through its
members only, so ``υ`` is reached exactly when one of its members is — the
handles step 1 ships are the closure's.

At query time local set-reachability is evaluated over the *SCC-condensed*
compound graph (as the paper does for all three local strategies) by one
kernel, the bitset one-pass sweep
(:func:`~repro.core.packed_steps.condensation_rows`), wrapped so that callers
keep using original vertex ids.  The paper's choice of local strategy (its
Fig. 7) is measured over the published condensations, not configured
(``benchmarks/bench_fig7_local_indexes.py``).

Both are immutable CSR snapshots (:mod:`repro.graph.csr`), built in bulk
with no ``DiGraph`` in between: :func:`assemble_compound_graph` sorts the
local edges, the remote summaries' memoised contributions and the cut into
one snapshot (one sort over int64 arrays, byte-identical to
:meth:`~repro.graph.csr.CSRGraph.from_edges` over the same edges), and
:func:`~repro.graph.scc.condense_dense` emits the condensation straight
into another, which the kernel sweeps directly; its ``component_of`` is the
component → member expansion's index as it is.  Both are built once per
epoch and never edited after its publish: an update, an isolated-vertex
insert included, reaches the compound graphs only through the next flush.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Set, Tuple

from repro.core.packed_steps import build_expansion, condensation_rows
from repro.core.summary import PartitionSummary
from repro.graph.csr import CSRGraph
from repro.graph.scc import GraphLike, condensation_dag, condense_dense
from repro.reachability import kernels
from repro.reachability.packed import BitGather, VertexRank, handle_gather


class CondensedReachability:
    """Set-reachability over the SCC-condensed view of a graph (immutable).

    Condenses ``graph`` — a snapshot (a compound graph) or a ``DiGraph``,
    whose current snapshot is frozen in — once, at construction, and
    sweeps the condensation with the bitset kernel, translating between
    original vertex ids and component ids.

    ``vertex_rank`` is the stable per-epoch numbering of the graph's
    vertices (its snapshot's dense indices); the condensation's components
    are numbered by their DAG ranks.  ``expansion`` maps component rows to
    member rows over ``vertex_rank``
    (:func:`~repro.core.packed_steps.build_expansion`), one batch per
    kernel call.  ``component_of`` is the component of every dense vertex
    index, as an int64 numpy array.
    """

    __slots__ = ("dag", "vertex_to_component", "vertex_rank", "expansion", "component_of")

    def __init__(self, graph: GraphLike, kept: Optional[CondensedReachability] = None) -> None:
        """Condense ``graph``.

        ``kept`` is the condensation of an earlier snapshot whose SCC
        partition and numbering :func:`condensation_holds` has proven still
        right for ``graph``: Tarjan does not run, only the DAG edges are
        re-emitted under its ``component_of``, and its component map and
        expansion are reused.  A kept numbering is therefore one that held
        for an earlier graph — still reverse-topological, but not the one a
        fresh Tarjan would give; the next Tarjan run resets it.
        """
        csr = graph.csr()
        if kept is None:
            dag, component_of = condense_dense(csr)
            components = component_of.tolist()
            self.vertex_to_component: Dict[int, int] = dict(zip(csr.ids, components))
            # The component → member transform that expands component rows
            # to member rows, indexed by ``component_of``.
            self.expansion: BitGather = build_expansion(components, dag.num_vertices)
        else:
            component_of = kept.component_of
            dag = condensation_dag(csr, component_of, kept.dag.num_vertices)
            self.vertex_to_component, self.expansion = kept.vertex_to_component, kept.expansion
        self.dag: CSRGraph = dag
        self.component_of: Sequence[int] = component_of
        self.vertex_rank = VertexRank.from_csr(csr)

    # -- queries -------------------------------------------------------- #
    def set_reachability_rows(
        self, sources: Iterable[int], target_mask: Optional[int] = None
    ) -> Dict[int, int]:
        """Packed ``{source: row}`` over the graph's :attr:`vertex_rank`.

        ``localSetReachability(.)`` of Algorithms 1 and 2, through
        :func:`~repro.core.packed_steps.condensation_rows`: sources are
        translated to DAG components, one bitset sweep harvests packed
        component rows, and the reached components expand to their member
        vertices in one batched transform.  ``target_mask`` (a row over
        :attr:`vertex_rank`) restricts both the harvest and the expansion;
        ``None`` returns the full reachable rows.  Sources unknown to the
        graph get a zero row.
        """
        return condensation_rows(
            self.dag, self.vertex_to_component, self.expansion, sources, target_mask
        )

    # -- stats ---------------------------------------------------------- #
    @property
    def dag_num_edges(self) -> int:
        return self.dag.num_edges

    @property
    def dag_num_vertices(self) -> int:
        return self.dag.num_vertices


def condensation_holds(
    condensed: CondensedReachability,
    graph: CSRGraph,
    inserted: Iterable[Tuple[int, int]],
    deleted: Iterable[Tuple[int, int]],
) -> bool:
    """Whether ``condensed``'s SCC partition and numbering are right for ``graph``.

    ``condensed`` condenses an earlier snapshot, and ``graph`` is that snapshot
    with the ``inserted`` edges added and the ``deleted`` ones removed
    (an edge listed in both is one both have).  The numbering holds when

    (a) ``graph``'s vertex ids are the earlier snapshot's;
    (b) every inserted edge stays inside a component or descends, from a
        higher component id to a lower one; and
    (c) every deleted edge ``(u, v)`` inside a component is bypassed:
        ``u`` still reaches ``v`` in ``graph``.

    By (b) no cycle can cross components, so no two of them merge, and
    every edge of ``graph`` still descends; by (c) every path inside a
    component survives, so none splits.  The check of (c) is one
    bidirectional, early-exit search per such edge, and by (b) it never
    leaves the component (:func:`_bypassed`).
    """
    if graph.ids != condensed.vertex_rank.ids:
        return False
    component = condensed.vertex_to_component
    if any(component[u] < component[v] for u, v in inserted):
        return False
    index_of, component_of = graph._index_of, condensed.expansion.index
    return all(
        component[u] != component[v]
        or _bypassed(graph, component_of, component[u], index_of[u], index_of[v])
        for u, v in deleted
    )


def _bypassed(
    graph: CSRGraph, component_of: Sequence[int], component: int, source: int, target: int
) -> bool:
    """Whether dense ``source`` reaches ``target`` inside ``component``.

    Alternates a forward search from ``source`` and a backward one from
    ``target``, always growing the smaller frontier, and stops as soon as
    the two meet.
    """
    if source == target:
        return True
    # Per side: (offsets, targets, vertices seen, frontier); the forward
    # side walks successors from ``source``, the backward one predecessors
    # from ``target``.
    growing = (graph.fwd_offsets, graph.fwd_targets, {source}, [source])
    waiting = (graph.rev_offsets, graph.rev_targets, {target}, [target])
    while growing[3] and waiting[3]:
        if len(growing[3]) > len(waiting[3]):
            growing, waiting = waiting, growing
        offsets, targets, seen, frontier = growing
        other = waiting[2]
        reached = []
        for vertex in frontier:
            for neighbour in targets[offsets[vertex] : offsets[vertex + 1]]:
                if neighbour in other:
                    return True
                if neighbour not in seen and component_of[neighbour] == component:
                    seen.add(neighbour)
                    reached.append(neighbour)
        growing = (offsets, targets, seen, reached)
    return False


@dataclass
class CompoundGraph:
    """The compound graph of one partition plus its query-time helpers.

    Immutable once its epoch is published: a flush assembles a new one for
    every partition and condenses it (:meth:`build_reachability`) before
    the publish, and nothing edits it afterwards.
    """

    partition_id: int
    #: ``G^C_i`` as an immutable snapshot.
    graph: CSRGraph
    #: The local snapshot the local piece of :attr:`graph` was assembled
    #: from: what the next flush diffs the partition's new local graph
    #: against.
    local_snapshot: CSRGraph
    local_vertices: Set[int]
    # Entry handles of every *remote* partition, keyed by partition id.
    remote_forward_handles: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    remote_backward_handles: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    # Remote boundary vertices (real ids) present in this compound graph.
    remote_boundary_vertices: Set[int] = field(default_factory=set)
    #: The condensed compound graph the kernel sweeps; built once, before
    #: the graph is published.
    reachability: Optional[CondensedReachability] = None
    # Packed handle masks and handle re-pack transforms over
    # :attr:`vertex_rank`, per remote partition (a racing store writes the
    # identical value).
    _handle_masks: Dict[int, int] = field(default_factory=dict, init=False, repr=False)
    _handle_gathers: Dict[int, BitGather] = field(
        default_factory=dict, init=False, repr=False
    )

    # ------------------------------------------------------------------ #
    def build_reachability(self, kept: Optional[CondensedReachability] = None) -> None:
        """Build the condensation the kernel sweeps.

        ``kept`` is an earlier condensation that still holds (see
        :class:`CondensedReachability`).
        """
        self.reachability = CondensedReachability(self.graph, kept)

    # -- packed-row pipeline -------------------------------------------- #
    @property
    def vertex_rank(self) -> VertexRank:
        """This compound graph's stable per-epoch vertex-rank numbering."""
        return self.reachability.vertex_rank

    def local_set_reachability_rows(
        self, sources: Iterable[int], target_mask: Optional[int] = None
    ) -> Dict[int, int]:
        """Packed-row ``localSetReachability(.)`` over :attr:`vertex_rank`."""
        return self.reachability.set_reachability_rows(sources, target_mask)

    def condensation_view(self) -> CondensedReachability:
        """The condensation the kernel sweeps."""
        return self.reachability

    def handle_mask_of(self, partition_id: int) -> int:
        """Partition ``partition_id``'s forward handles as one packed row."""
        mask = self._handle_masks.get(partition_id)
        if mask is None:
            mask = self.vertex_rank.pack(self.forward_handles_of(partition_id))
            self._handle_masks[partition_id] = mask
        return mask

    def handle_gather_of(self, partition_id: int) -> BitGather:
        """Re-pack rows over :attr:`vertex_rank` into a remote partition's
        wire positions.

        Positions index the partition's sorted handle order (see
        :meth:`repro.core.summary.PartitionSummary.forward_handle_order`),
        which every slave derives identically from the broadcast summary —
        this is the numbering packed handle messages are addressed in.
        """
        gather = self._handle_gathers.get(partition_id)
        if gather is None:
            gather = handle_gather(self.forward_handles_of(partition_id), self.vertex_rank)
            self._handle_gathers[partition_id] = gather
        return gather

    # -- size statistics (Table 2) --------------------------------------- #
    def original_num_edges(self) -> int:
        return self.graph.num_edges

    def dag_num_edges(self) -> int:
        return self.reachability.dag_num_edges

    def estimated_bytes(self) -> int:
        """Rough storage footprint: 8 bytes per edge + 4 per vertex."""
        return 8 * self.graph.num_edges + 4 * self.graph.num_vertices

    def forward_handles_of(self, partition_id: int) -> FrozenSet[int]:
        return self.remote_forward_handles.get(partition_id, frozenset())


def assemble_compound_graph(
    partition_id: int,
    local_graph: GraphLike,
    summaries: Mapping[int, PartitionSummary],
    cut_edges: Sequence[Tuple[int, int]] = (),
    cut_piece: Optional[tuple] = None,
) -> CompoundGraph:
    """Merge the local subgraph, remote summaries and cut into ``G^C_i``.

    ``G^C_i`` is ``G^B_i``'s parts plus the local vertices and edges,
    built into one CSR snapshot in bulk — byte-identical to snapshotting the
    ``DiGraph`` the same edges would make, so vertex ranks, packed masks
    and wire positions are a function of the graph alone.  It merges int64
    array pieces: the local snapshot's buffers, each remote summary's
    memoised :meth:`~repro.core.summary.PartitionSummary.contribution_arrays`
    and the cut — one sort of the vertices, one remap of the endpoints, one
    sort of the edge keys (:func:`repro.reachability.kernels.np_union_csr`).
    ``cut_piece`` is the cut already as a piece
    (``kernels.np_edges_piece((), cut_edges)``): a flush builds it once for
    every compound graph.  The returned compound graph is not condensed yet
    (:meth:`CompoundGraph.build_reachability` does it, as
    :func:`build_compound_graph` does).
    """
    if cut_piece is None:
        cut_piece = kernels.np_edges_piece((), cut_edges)
    local_snapshot = local_graph.csr()
    graph = CSRGraph.from_sorted(
        *kernels.np_union_csr(
            [
                kernels.np_csr_piece(local_snapshot),
                *(
                    summary.contribution_arrays()
                    for other_id, summary in summaries.items()
                    if other_id != partition_id
                ),
                cut_piece,
            ]
        )
    )
    remote_forward: Dict[int, FrozenSet[int]] = {}
    remote_backward: Dict[int, FrozenSet[int]] = {}
    remote_boundary: Set[int] = set()

    for other_id, summary in summaries.items():
        if other_id == partition_id:
            continue
        remote_forward[other_id] = summary.forward_handles()
        remote_backward[other_id] = summary.backward_handles()
        remote_boundary |= summary.boundary_vertices

    return CompoundGraph(
        partition_id=partition_id,
        graph=graph,
        local_vertices=set(local_graph.vertices()),
        remote_forward_handles=remote_forward,
        remote_backward_handles=remote_backward,
        remote_boundary_vertices=remote_boundary,
        local_snapshot=local_snapshot,
    )


def build_compound_graph(
    partition_id: int,
    local_graph: GraphLike,
    summaries: Mapping[int, PartitionSummary],
    cut_edges: Sequence[Tuple[int, int]] = (),
    cut_piece: Optional[tuple] = None,
) -> CompoundGraph:
    """Assemble ``G^C_i`` and condense it."""
    compound = assemble_compound_graph(
        partition_id, local_graph, summaries, cut_edges, cut_piece
    )
    compound.build_reachability()
    return compound
