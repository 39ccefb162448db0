"""Per-partition reachability summaries.

A :class:`PartitionSummary` is everything slave ``j`` precomputes about its
own partition and ships to every other slave during the index build: its
boundary sets, its equivalence classes (Definition 5), and the transitive
reachability among its boundary vertices.  With the equivalence optimisation
that reachability is stored as a *minimum equivalent graph* — the fewest
edges with the same ``I_j ⇝ (I_j ∪ O_j)`` reachability as the closure (see
:func:`_add_minimum_equivalent_edges`); without it the closure pairs are
kept verbatim (Definition 4).

Merging all remote summaries with the static cut yields the boundary graph of
Definition 4 (see :mod:`repro.core.boundary_graph`); merging them with the
local subgraph yields the compound graph of Definition 6 (see
:mod:`repro.core.compound_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.equivalence import (
    EquivalenceClass,
    LocalCondensation,
    compute_backward_classes,
    compute_forward_classes,
)
from repro.graph.digraph import DiGraph
from repro.reachability import kernels
from repro.reachability.packed import iter_bits, pack_ranks, wire_order

#: The one strategy partition summaries are computed with: one-pass bitset
#: sweeps over each local condensation.
SUMMARY_STRATEGY = "msbfs"


@dataclass
class PartitionSummary:
    """Reachability summary of one partition, shared with all other slaves."""

    partition_id: int
    in_boundaries: FrozenSet[int]
    out_boundaries: FrozenSet[int]
    use_equivalence: bool
    forward_classes: List[EquivalenceClass] = field(default_factory=list)
    backward_classes: List[EquivalenceClass] = field(default_factory=list)
    # Class-level transitive edges (forward-class id -> backward-class id).
    class_edges: Set[Tuple[int, int]] = field(default_factory=set)
    # Transitive edges leaving a real in-boundary vertex: onto another
    # boundary vertex, or (equivalence only, from a group of overlap
    # vertices that has no forward class to speak for it) onto a
    # backward-class id.
    member_edges: Set[Tuple[int, int]] = field(default_factory=set)
    # Lazily built derived caches.  A summary is immutable by contract once
    # its build returns, but the member→class maps are requested per remote
    # summary in every boundary/compound-graph assembly and the expansion
    # table per received handle in query step 3 — memoising them turns
    # thousands of per-call dict rebuilds into one.  Excluded from equality
    # (derived state) and rebuilt on the receiving side after pickling.
    _member_to_forward: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _member_to_backward: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _expand_table: Optional[Dict[int, Tuple[int, ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _forward_handle_order: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _contribution: Optional[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _contribution_arrays: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _boundary_vertices: Optional[FrozenSet[int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _forward_handles: Optional[FrozenSet[int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _backward_handles: Optional[FrozenSet[int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # derived accessors
    # ------------------------------------------------------------------ #
    @property
    def overlap(self) -> Set[int]:
        """Vertices that are both in- and out-boundaries (kept member level)."""
        return set(self.in_boundaries) & set(self.out_boundaries)

    @property
    def boundary_vertices(self) -> FrozenSet[int]:
        """``I_j ∪ O_j`` (memoised, as are the handle sets below)."""
        if self._boundary_vertices is None:
            self._boundary_vertices = self.in_boundaries | self.out_boundaries
        return self._boundary_vertices

    def member_to_forward_class(self) -> Dict[int, int]:
        """Map each classified in-boundary member to its class id (memoised).

        The returned dict is a shared cache — treat it as read-only.
        """
        if self._member_to_forward is None:
            mapping: Dict[int, int] = {}
            for cls in self.forward_classes:
                for member in cls.members:
                    mapping[member] = cls.class_id
            self._member_to_forward = mapping
        return self._member_to_forward

    def member_to_backward_class(self) -> Dict[int, int]:
        """Map each classified out-boundary member to its class id (memoised).

        The returned dict is a shared cache — treat it as read-only.
        """
        if self._member_to_backward is None:
            mapping: Dict[int, int] = {}
            for cls in self.backward_classes:
                for member in cls.members:
                    mapping[member] = cls.class_id
            self._member_to_backward = mapping
        return self._member_to_backward

    def forward_handles(self) -> FrozenSet[int]:
        """Entry handles other slaves use to address this partition (memoised).

        With the equivalence optimisation these are the forward-class ids plus
        the overlap vertices; without it they are the raw in-boundaries.
        Every compound graph of the other partitions reads them on every
        assembly.
        """
        if self._forward_handles is None:
            self._forward_handles = self._handles(self.in_boundaries, self.forward_classes)
        return self._forward_handles

    def backward_handles(self) -> FrozenSet[int]:
        """Exit handles (used by the optional backward query processing)."""
        if self._backward_handles is None:
            self._backward_handles = self._handles(self.out_boundaries, self.backward_classes)
        return self._backward_handles

    def _handles(
        self, boundaries: FrozenSet[int], classes: List[EquivalenceClass]
    ) -> FrozenSet[int]:
        if not self.use_equivalence:
            return boundaries
        return frozenset(cls.class_id for cls in classes) | (
            self.in_boundaries & self.out_boundaries
        )

    def expand_handle(self, handle: int) -> Tuple[int, ...]:
        """Expand a received handle into concrete member vertices.

        A class handle expands to its representative (the equivalence
        guarantee makes any member interchangeable for non-boundary targets);
        a member handle expands to itself.  The class→representative table
        is memoised (see :meth:`expand_table`): step 3 expands one handle
        per received message entry, and a linear class scan per handle does
        not scale.
        """
        return self.expand_table().get(handle, (handle,))

    def expand_table(self) -> Dict[int, Tuple[int, ...]]:
        """The memoised class-id → expansion-members table (read-only).

        This is the single definition of the handle-expansion contract:
        :meth:`expand_handle` reads it in-process and
        :func:`repro.core.shard_exec.build_shard_blob` ships it to worker
        processes, so the two evaluation paths cannot drift.
        """
        if self._expand_table is None:
            self._expand_table = {
                cls.class_id: (cls.representative,)
                for cls in list(self.forward_classes) + list(self.backward_classes)
            }
        return self._expand_table

    def forward_handle_order(self) -> Tuple[int, ...]:
        """The canonical forward-handle numbering of this partition.

        Packed cross-partition messages address this partition's handles by
        *position* in this tuple; every slave derives the same order from
        the broadcast summary, so the positions agree cluster-wide.
        """
        if self._forward_handle_order is None:
            self._forward_handle_order = tuple(wire_order(self.forward_handles()))
        return self._forward_handle_order

    def classes_by_id(self) -> Dict[int, EquivalenceClass]:
        return {
            cls.class_id: cls
            for cls in list(self.forward_classes) + list(self.backward_classes)
        }

    def graph_contribution(
        self,
    ) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
        """``(vertices, edges)`` this summary adds to every remote graph (memoised).

        The single definition of what partition ``j`` contributes to the
        boundary graph ``G^B_i`` and the compound graph ``G^C_i`` of every
        other partition ``i``: its boundary vertices, and — with the
        equivalence optimisation — its class vertices with their connectors
        (member → forward class, backward class → member), plus the stored
        transitive edges.  Computed once per summary: a clean partition's
        summary is reused across epochs, so every later flush assembles from
        the memo.
        """
        if self._contribution is None:
            vertices, edges = self._contribution_lists()
            self._contribution = (tuple(vertices), tuple(edges))
        return self._contribution

    def _contribution_lists(self) -> Tuple[List[int], List[Tuple[int, int]]]:
        vertices = list(self.boundary_vertices)
        edges = list(self.class_edges)
        edges.extend(self.member_edges)
        if self.use_equivalence:
            vertices.extend(cls.class_id for cls in self.forward_classes)
            vertices.extend(cls.class_id for cls in self.backward_classes)
            edges.extend(self.member_to_forward_class().items())
            edges.extend(
                (class_id, member)
                for member, class_id in self.member_to_backward_class().items()
            )
        return vertices, edges

    def contribution_arrays(self) -> tuple:
        """:meth:`graph_contribution` as int64 arrays (memoised).

        ``(vertex objects, vertices, sources, targets)``: the piece
        :func:`repro.core.compound_graph.assemble_compound_graph` merges
        (:func:`repro.reachability.kernels.np_edges_piece`).  Converted once
        per summary, so a clean partition's summary is reused as arrays
        across epochs; the tuple form is not memoised along the way, as
        assembly never reads it.
        """
        if self._contribution_arrays is None:
            self._contribution_arrays = kernels.np_edges_piece(
                *(self._contribution or self._contribution_lists())
            )
        return self._contribution_arrays

    # ------------------------------------------------------------------ #
    # size accounting (Table 2 / Table 4)
    # ------------------------------------------------------------------ #
    def num_transitive_edges(self) -> int:
        """Edges this summary contributes to every remote boundary graph."""
        return len(self.graph_contribution()[1])

    def message_size(self) -> int:
        """Estimated size (bytes) of shipping this summary to another slave."""
        size = 4 * (len(self.in_boundaries) + len(self.out_boundaries) + 4)
        size += sum(cls.message_size() for cls in self.forward_classes)
        size += sum(cls.message_size() for cls in self.backward_classes)
        size += 8 * (len(self.class_edges) + len(self.member_edges))
        return size


def build_partition_summary(
    partition_id: int,
    local_graph: DiGraph,
    in_boundaries: Set[int],
    out_boundaries: Set[int],
    retired_allocator: object = None,
    use_equivalence: bool = True,
    local_index_name: str = SUMMARY_STRATEGY,
) -> PartitionSummary:
    """Compute the summary of one partition (runs at its home slave).

    The local graph is condensed once (:class:`LocalCondensation`) and every
    pass below — forward signatures, backward signatures, the boundary rows
    — is one sweep of that condensation with the bitset kernel of
    :mod:`repro.reachability.bitset_msbfs`, harvested per *component*: the
    members of a component reach the same vertices, so rows are never
    expanded back to vertices where a component row says the same thing.
    ``local_index_name`` names the kernel and admits only
    :data:`SUMMARY_STRATEGY`.  ``retired_allocator`` is ignored: class ids
    are canonical (:func:`repro.core.equivalence.class_id`); the slot stays
    only for the spine benchmark, which still passes a retired
    :class:`~repro.core.equivalence.ClassIdAllocator` in it.

    The transitive reachability is materialised as follows:

    * without equivalence: the full member-level ``I_j ⇝ O_j`` pairs
      (Definition 4 verbatim);
    * with equivalence: the minimum equivalent graph of ``I_j ⇝ (I_j ∪ O_j)``
      over the in-boundaries and the backward classes (in-boundary →
      in-boundary reachability is part of it so that remote boundary
      *targets* resolve without an extra communication round).
    """
    if local_index_name != SUMMARY_STRATEGY:
        raise ValueError(
            f"partition summaries sweep with {SUMMARY_STRATEGY!r}, not {local_index_name!r}"
        )
    in_boundaries = set(in_boundaries)
    out_boundaries = set(out_boundaries)
    summary = PartitionSummary(
        partition_id=partition_id,
        in_boundaries=frozenset(in_boundaries),
        out_boundaries=frozenset(out_boundaries),
        use_equivalence=use_equivalence,
    )
    if not in_boundaries and not out_boundaries:
        return summary
    local = LocalCondensation.of(local_graph)

    if not use_equivalence:
        _add_closure_edges(summary, local)
        return summary

    summary.forward_classes = compute_forward_classes(
        local_graph, in_boundaries, out_boundaries, partition_id, local
    )
    summary.backward_classes = compute_backward_classes(
        local_graph, in_boundaries, out_boundaries, partition_id, local
    )

    # Reachability from every in-boundary to every boundary vertex; this is
    # the same O(|I_j| * |O_j|)-style computation the paper performs, the
    # compression happens in what gets *stored*.
    rows = local.rows(in_boundaries, in_boundaries | out_boundaries)
    _add_minimum_equivalent_edges(summary, local.component_of, rows)
    return summary


def _add_closure_edges(summary: PartitionSummary, local: LocalCondensation) -> None:
    """Store every member-level ``I_j ⇝ O_j`` pair (Definition 4 verbatim).

    An in-boundary reaches the out-boundaries of the components its own
    component reaches; sources sharing a component row share the expansion.
    """
    component_of = local.component_of
    outs_of: Dict[int, List[int]] = {}
    for vertex in summary.out_boundaries:
        outs_of.setdefault(component_of[vertex], []).append(vertex)
    rows = local.rows(summary.in_boundaries, summary.out_boundaries)
    expanded: Dict[int, List[int]] = {}
    member_edges = summary.member_edges
    for source in summary.in_boundaries:
        row = rows[component_of[source]]
        targets = expanded.get(row)
        if targets is None:
            targets = expanded[row] = [t for c in iter_bits(row) for t in outs_of[c]]
        member_edges.update((source, target) for target in targets if target != source)


def _add_minimum_equivalent_edges(
    summary: PartitionSummary, component_of: Dict[int, int], rows: Dict[int, int]
) -> None:
    """Store ``I_j ⇝ (I_j ∪ O_j)`` as a minimum equivalent graph.

    ``rows[c]`` is the packed row (over the local condensation's dense
    indices) of the boundary-holding components that the component ``c`` of
    an in-boundary reaches, ``c`` included.  The closure those rows spell
    out is quadratic in the boundary; what is stored instead has the same
    reachability from every in-boundary onto every boundary vertex and
    class vertex, and is linear in the boundary on the graphs measured:

    * in-boundaries sharing a component are exactly the mutually reachable
      ones; each such group becomes one cycle, and its component's bit
      stands for it (its smallest member is the group's *head*);
    * between groups, and from groups onto backward classes (all members of
      a backward class are reached by the same in-boundaries, so the
      component of its representative stands for the class), only the
      transitive *reduction* is kept: group ``g`` keeps an edge onto ``h``
      unless another group it reaches already reaches ``h``.

    The reduction runs on the rows themselves.  ``below[h]`` — the row of
    ``h`` minus its own bit — is everything ``h`` makes redundant among the
    groups; ORing it over the groups ``g`` reaches leaves exactly the
    reduction edges uncovered.  A group already below a visited one is
    skipped (its ``below`` row is contained in the visitor's), so ``g``
    costs three big-int operations per group *visited*.  Visiting in
    descending component order — a component only reaches lower ones —
    visits exactly the groups ``g`` keeps edges onto, never a tuple per
    closure pair.  A backward class is redundant once any reached group
    reaches it, its own component included.

    An edge onto a backward class leaves the group through the forward
    class of one of its members when it has one (``class_edges``; sound
    because forward-equivalent members reach the same out-boundaries) and
    through its head vertex when the group is overlap-only.
    """
    member_to_forward = summary.member_to_forward_class()

    groups: Dict[int, List[int]] = {}
    for vertex in sorted(summary.in_boundaries):
        groups.setdefault(component_of[vertex], []).append(vertex)
    group_mask = pack_ranks(sorted(groups))
    # A component never holds members of two backward classes.
    sink_class = {
        component_of[cls.representative]: cls.class_id for cls in summary.backward_classes
    }
    sink_mask = pack_ranks(sorted(sink_class))

    member_edges = summary.member_edges
    class_edges = summary.class_edges
    for component, members in groups.items():
        head = members[0]
        if len(members) > 1:
            member_edges.update(zip(members, members[1:] + members[:1]))
        row = rows[component]
        reached = row & group_mask & ~(1 << component)
        covered = 0
        pending = reached
        while pending:
            top = pending.bit_length() - 1
            bit = 1 << top
            covered |= rows[top] & ~bit
            pending &= ~(covered | bit)
        for c in iter_bits(reached & ~covered):
            member_edges.add((head, groups[c][0]))
        sinks = row & sink_mask & ~(covered | reached)
        if sinks:
            exit_class = next(
                (member_to_forward[m] for m in members if m in member_to_forward), None
            )
            for c in iter_bits(sinks):
                if exit_class is None:
                    member_edges.add((head, sink_class[c]))
                else:
                    class_edges.add((exit_class, sink_class[c]))
