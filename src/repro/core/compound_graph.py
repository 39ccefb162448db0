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
compound graph (as the paper does for all three local strategies), wrapped so
that callers keep using original vertex ids.

Both are immutable CSR snapshots (:mod:`repro.graph.csr`), built in bulk
with no ``DiGraph`` in between: :func:`assemble_compound_graph` sorts the
local edges, the remote summaries' memoised contributions and the cut into
one snapshot (one sort over int64 arrays, byte-identical to
:meth:`~repro.graph.csr.CSRGraph.from_edges` over the same edges), and
:func:`~repro.graph.scc.condense_dense` emits the condensation straight
into another, which every strategy then runs over directly; its
``component_of`` is the component → member expansion's index as it is.  A
published compound graph is never edited in place except by
:meth:`CompoundGraph.add_isolated_vertex`, which swaps in a new snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

import weakref

from repro.core.packed_steps import build_expansion, condensation_rows
from repro.core.summary import PartitionSummary
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.scc import GraphLike, condense_dense
from repro.reachability import kernels
from repro.reachability.base import ReachabilityIndex
from repro.reachability.factory import make_reachability_index
from repro.reachability.packed import BitGather, VertexRank, handle_gather


@dataclass(frozen=True)
class _CondensedView:
    """One immutable condensation view (graph ranks, DAG, expansion, strategy).

    :class:`CondensedReachability` publishes a complete view through a single
    attribute assignment so a :meth:`CondensedReachability.rebuild` racing a
    concurrent reader can never expose a new DAG with an old component map —
    readers grab the view once and work against that consistent tuple.

    ``vertex_rank`` is the stable per-epoch numbering of the underlying
    (compound) graph's vertices and ``dag_rank`` the numbering of the
    condensation's components; ``expansion`` maps component rows to member
    rows over ``vertex_rank`` (:func:`~repro.core.packed_steps.
    build_expansion`), one batch per kernel call.
    """

    dag: CSRGraph
    vertex_to_component: Dict[int, int]
    index: ReachabilityIndex
    vertex_rank: VertexRank
    dag_rank: VertexRank
    expansion: BitGather


class CondensedReachability:
    """Set-reachability over the SCC-condensed view of a graph.

    Wraps any centralized strategy built over the condensation and translates
    between original vertex ids and component ids.  ``graph`` is a snapshot
    (a compound graph) or a ``DiGraph``, whose current snapshot is frozen in.
    """

    def __init__(self, graph: GraphLike, strategy: str = "dfs", **kwargs) -> None:
        self.strategy = strategy
        self._kwargs = kwargs
        self.rebuild(graph)

    def rebuild(self, graph: GraphLike) -> None:
        """Condense ``graph`` and publish the complete view in one swap."""
        self.graph = graph
        csr = graph.csr()
        dag, component_of = condense_dense(csr)
        vertex_to_component = dict(zip(csr.ids, component_of))
        index = make_reachability_index(self.strategy, dag, **self._kwargs)
        # Packed-pipeline structures, frozen with the view: the stable
        # vertex/component rank numberings (the two snapshots' dense
        # indices) and the component → member transform that expands
        # component rows to member rows — indexed by ``component_of``.
        vertex_rank = VertexRank.from_csr(csr)
        dag_rank = VertexRank.from_csr(dag)
        expansion = build_expansion(component_of, dag.num_vertices)
        # Single atomic publication of the complete rebuilt view.
        self._view = _CondensedView(
            dag, vertex_to_component, index, vertex_rank, dag_rank, expansion
        )

    # Legacy attribute access (read-only snapshots of the current view).
    @property
    def dag(self) -> CSRGraph:
        return self._view.dag

    @property
    def vertex_to_component(self) -> Dict[int, int]:
        return self._view.vertex_to_component

    @property
    def vertex_rank(self) -> VertexRank:
        """The stable per-epoch rank numbering of the graph's vertices."""
        return self._view.vertex_rank

    def current_view(self) -> _CondensedView:
        """Capture the published condensation view (one consistent tuple).

        Packed query steps capture the view **once** and derive every rank,
        mask and row from it: the sanctioned rebuild (an isolated-vertex
        insert) swaps in a view with a *shifted* rank
        numbering, and mixing pre-/post-swap reads within one step would
        AND masks against rows of a different numbering.
        """
        return self._view

    # -- queries -------------------------------------------------------- #
    def reachable(self, source: int, target: int) -> bool:
        view = self._view
        if source not in view.vertex_to_component or target not in view.vertex_to_component:
            return False
        return view.index.reachable(
            view.vertex_to_component[source], view.vertex_to_component[target]
        )

    def set_reachability_rows(
        self,
        sources: Iterable[int],
        target_mask: Optional[int] = None,
        view: Optional[_CondensedView] = None,
    ) -> Dict[int, int]:
        """Packed ``{source: row}`` over the graph's :attr:`vertex_rank`.

        ``localSetReachability(.)`` of Algorithms 1 and 2: sources are
        translated to DAG components, the strategy returns packed component
        rows (natively for the bitset MS-BFS / CSR DFS, via the set↔bits
        bridge otherwise), and the reached components expand to their member
        vertices in one batched transform of the view.  ``target_mask`` (a
        row over :attr:`vertex_rank`) restricts both the harvest and the
        expansion; ``None`` returns the full reachable rows.  Sources unknown to the graph get a zero row.
        ``view`` pins the evaluation to a previously captured
        :meth:`current_view` so callers that built their masks from it can
        never race an in-place rebuild.
        """
        if view is None:
            view = self._view
        return condensation_rows(
            sources,
            view.vertex_to_component,
            lambda comps, dag_mask: view.index.set_reachability_bits(
                comps, view.dag_rank, dag_mask
            ),
            view.expansion,
            target_mask,
        )

    # -- stats ---------------------------------------------------------- #
    @property
    def dag_num_edges(self) -> int:
        return self._view.dag.num_edges

    @property
    def dag_num_vertices(self) -> int:
        return self._view.dag.num_vertices


@dataclass
class CompoundGraph:
    """The compound graph of one partition plus its query-time helpers."""

    partition_id: int
    #: ``G^C_i`` as an immutable snapshot; only :meth:`add_isolated_vertex`
    #: ever replaces it on a published compound graph.
    graph: CSRGraph
    local_vertices: Set[int]
    # Entry handles of every *remote* partition, keyed by partition id.
    remote_forward_handles: Dict[int, Set[int]] = field(default_factory=dict)
    remote_backward_handles: Dict[int, Set[int]] = field(default_factory=dict)
    # Remote boundary vertices (real ids) present in this compound graph.
    remote_boundary_vertices: Set[int] = field(default_factory=set)
    # Local strategy evaluated over the condensed compound graph.
    reachability: Optional[CondensedReachability] = None
    # Packed handle masks and handle re-pack transforms, cached per
    # VertexRank *object*: every rebuild — including the sanctioned one
    # after an isolated-vertex insert (:meth:`add_isolated_vertex`) —
    # installs a fresh rank, so entries keyed by a retired rank are
    # unreachable (and garbage-collected with it) rather than
    # cleared-and-restamped, which a racing reader could re-poison.
    _handle_masks: "weakref.WeakKeyDictionary" = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )
    _handle_gathers: "weakref.WeakKeyDictionary" = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )

    # ------------------------------------------------------------------ #
    def build_reachability(self, strategy: str = "dfs", **kwargs) -> None:
        """(Re)build the condensed local reachability strategy."""
        self.reachability = CondensedReachability(self.graph, strategy=strategy, **kwargs)

    def add_isolated_vertex(self, vertex: int) -> None:
        """Register a new isolated local vertex with this published graph.

        The one sanctioned edit of a published compound graph: a new
        snapshot — this one's vertices plus ``vertex``, the same edges — is
        swapped in and, when the condensation exists, re-condensed into a
        new view.  It never reads anything but this epoch's own snapshot,
        so no answer of the epoch changes (an isolated vertex reaches and is
        reached by nothing); only the rank numbering shifts, which pinned
        views (:meth:`condensation_view`) and the worker payloads' rank
        cardinality check absorb.
        """
        self.graph = CSRGraph.from_edges(
            (*self.graph.ids, vertex), tuple(self.graph.edges())
        )
        self.local_vertices.add(vertex)
        if self.reachability is not None:
            self.reachability.rebuild(self.graph)

    # -- packed-row pipeline -------------------------------------------- #
    @property
    def vertex_rank(self) -> VertexRank:
        """This compound graph's stable per-epoch vertex-rank numbering."""
        if self.reachability is None:
            self.build_reachability()
        return self.reachability.vertex_rank

    def local_set_reachability_rows(
        self,
        sources: Iterable[int],
        target_mask: Optional[int] = None,
        view: Optional[_CondensedView] = None,
    ) -> Dict[int, int]:
        """Packed-row ``localSetReachability(.)`` over :attr:`vertex_rank`.

        Pass a captured ``view`` (see
        :meth:`CondensedReachability.current_view`) when the target mask
        was packed from it, so the rows share its numbering.
        """
        if self.reachability is None:
            self.build_reachability()
        return self.reachability.set_reachability_rows(sources, target_mask, view)

    def condensation_view(self) -> "_CondensedView":
        """Capture the condensed view (building the reachability if needed)."""
        if self.reachability is None:
            self.build_reachability()
        return self.reachability.current_view()

    def pack_vertices(self, vertices: Iterable[int]) -> int:
        """Pack original vertex ids into a row over :attr:`vertex_rank`."""
        return self.vertex_rank.pack(vertices)

    def handle_mask_of(self, partition_id: int, rank: Optional[VertexRank] = None) -> int:
        """Partition ``partition_id``'s forward handles as one packed row.

        ``rank`` pins the mask to a captured view's numbering (defaults to
        the currently published one).  A concurrent in-place rebuild cannot
        poison the cache: entries are keyed by the rank object itself, and
        a redundant racing store writes the identical value.
        """
        if rank is None:
            rank = self.vertex_rank
        per_rank = self._handle_masks.get(rank)
        if per_rank is None:
            per_rank = {}
            self._handle_masks[rank] = per_rank
        mask = per_rank.get(partition_id)
        if mask is None:
            mask = rank.pack(self.forward_handles_of(partition_id))
            per_rank[partition_id] = mask
        return mask

    def handle_gather_of(self, partition_id: int, rank: VertexRank) -> BitGather:
        """Re-pack rows over ``rank`` into a remote partition's wire positions.

        Positions index the partition's sorted handle order (see
        :meth:`repro.core.summary.PartitionSummary.forward_handle_order`),
        which every slave derives identically from the broadcast summary —
        this is the numbering packed handle messages are addressed in.
        Cached per rank object, like :meth:`handle_mask_of`.
        """
        per_rank = self._handle_gathers.get(rank)
        if per_rank is None:
            per_rank = {}
            self._handle_gathers[rank] = per_rank
        gather = per_rank.get(partition_id)
        if gather is None:
            gather = handle_gather(self.forward_handles_of(partition_id), rank)
            per_rank[partition_id] = gather
        return gather

    # -- size statistics (Table 2) --------------------------------------- #
    def original_num_edges(self) -> int:
        return self.graph.num_edges

    def dag_num_edges(self) -> int:
        if self.reachability is None:
            self.build_reachability()
        return self.reachability.dag_num_edges

    def estimated_bytes(self) -> int:
        """Rough storage footprint: 8 bytes per edge + 4 per vertex."""
        return 8 * self.graph.num_edges + 4 * self.graph.num_vertices

    def forward_handles_of(self, partition_id: int) -> Set[int]:
        return self.remote_forward_handles.get(partition_id, set())

    def all_forward_handles(self) -> Dict[int, Set[int]]:
        return self.remote_forward_handles


def assemble_compound_graph(
    partition_id: int,
    local_graph: DiGraph,
    summaries: Mapping[int, PartitionSummary],
    cut_edges: Sequence[Tuple[int, int]],
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
    The returned compound graph has no reachability strategy yet (it is
    built on first use, or explicitly by :func:`build_compound_graph`).
    """
    graph = CSRGraph.from_sorted(
        *kernels.np_union_csr(
            [
                kernels.np_csr_piece(local_graph.csr()),
                *(
                    summary.contribution_arrays()
                    for other_id, summary in summaries.items()
                    if other_id != partition_id
                ),
                kernels.np_edges_piece((), cut_edges),
            ]
        )
    )
    remote_forward: Dict[int, Set[int]] = {}
    remote_backward: Dict[int, Set[int]] = {}
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
    )


def build_compound_graph(
    partition_id: int,
    local_graph: DiGraph,
    summaries: Mapping[int, PartitionSummary],
    cut_edges: Sequence[Tuple[int, int]],
    local_strategy: str = "dfs",
    strategy_kwargs: Optional[dict] = None,
) -> CompoundGraph:
    """Assemble ``G^C_i`` and condense it under the chosen local strategy."""
    compound = assemble_compound_graph(partition_id, local_graph, summaries, cut_edges)
    compound.build_reachability(local_strategy, **(strategy_kwargs or {}))
    return compound
