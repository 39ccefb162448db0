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
    ClassIdAllocator,
    EquivalenceClass,
    compute_backward_classes,
    compute_forward_classes,
)
from repro.graph.digraph import DiGraph
from repro.reachability.base import ReachabilityIndex
from repro.reachability.factory import make_reachability_index
from repro.reachability.packed import VertexRank, iter_bits


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

    # ------------------------------------------------------------------ #
    # derived accessors
    # ------------------------------------------------------------------ #
    @property
    def overlap(self) -> Set[int]:
        """Vertices that are both in- and out-boundaries (kept member level)."""
        return set(self.in_boundaries) & set(self.out_boundaries)

    @property
    def boundary_vertices(self) -> Set[int]:
        return set(self.in_boundaries) | set(self.out_boundaries)

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

    def forward_handles(self) -> Set[int]:
        """Entry handles other slaves use to address this partition.

        With the equivalence optimisation these are the forward-class ids plus
        the overlap vertices; without it they are the raw in-boundaries.
        """
        if not self.use_equivalence:
            return set(self.in_boundaries)
        handles = {cls.class_id for cls in self.forward_classes}
        handles |= self.overlap
        return handles

    def backward_handles(self) -> Set[int]:
        """Exit handles (used by the optional backward query processing)."""
        if not self.use_equivalence:
            return set(self.out_boundaries)
        handles = {cls.class_id for cls in self.backward_classes}
        handles |= self.overlap
        return handles

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
        """The canonical (sorted) forward-handle numbering of this partition.

        Packed cross-partition messages address this partition's handles by
        *position* in this tuple; every slave derives the same order from
        the broadcast summary, so the positions agree cluster-wide.
        """
        if self._forward_handle_order is None:
            self._forward_handle_order = tuple(sorted(self.forward_handles()))
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
            self._contribution = (tuple(vertices), tuple(edges))
        return self._contribution

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
    allocator: ClassIdAllocator,
    use_equivalence: bool = True,
    local_index: ReachabilityIndex = None,
    local_index_name: str = "msbfs",
) -> PartitionSummary:
    """Compute the summary of one partition (runs at its home slave).

    ``local_index`` may be provided to reuse an existing index over
    ``local_graph``; otherwise one is created with ``local_index_name`` (the
    default ``"msbfs"`` evaluates the whole ``I_j ⇝ (I_j ∪ O_j)`` batch with
    the CSR bitset kernel of :mod:`repro.reachability.bitset_msbfs` — one
    frontier pass for all in-boundaries instead of one BFS each).

    The transitive reachability is materialised as follows:

    * without equivalence: the full member-level ``I_j ⇝ O_j`` pairs
      (Definition 4 verbatim);
    * with equivalence: the minimum equivalent graph of ``I_j ⇝ (I_j ∪ O_j)``
      over the in-boundaries and the backward classes (in-boundary →
      in-boundary reachability is part of it so that remote boundary
      *targets* resolve without an extra communication round).
    """
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
    if local_index is None:
        local_index = make_reachability_index(local_index_name, local_graph)

    # All boundary reachability is harvested through packed rows over the
    # local snapshot's vertex ranks: the kernel covers the B boundary
    # vertices in ceil(B/W) passes and only touches the *reached* target
    # bits, instead of probing every (source, boundary) combination.
    rank = VertexRank.from_csr(local_graph.csr())

    if not use_equivalence:
        out_mask = rank.pack(out_boundaries)
        rows = local_index.set_reachability_bits(in_boundaries, rank, out_mask)
        for source in in_boundaries:
            for target in rank.unpack(rows.get(source, 0)):
                if source != target:
                    summary.member_edges.add((source, target))
        return summary

    summary.forward_classes = compute_forward_classes(
        local_graph,
        in_boundaries,
        out_boundaries,
        partition_id,
        allocator,
        local_index=local_index,
    )
    summary.backward_classes = compute_backward_classes(
        local_graph,
        in_boundaries,
        out_boundaries,
        partition_id,
        allocator,
    )

    # Reachability from every in-boundary to every boundary vertex; this is
    # the same O(|I_j| * |O_j|)-style computation the paper performs, the
    # compression happens in what gets *stored*.
    boundary_mask = rank.pack(in_boundaries | out_boundaries)
    rows = local_index.set_reachability_bits(in_boundaries, rank, boundary_mask)
    _add_minimum_equivalent_edges(summary, rank, rows)
    return summary


def _add_minimum_equivalent_edges(
    summary: PartitionSummary, rank: VertexRank, rows: Dict[int, int]
) -> None:
    """Store ``I_j ⇝ (I_j ∪ O_j)`` as a minimum equivalent graph.

    ``rows[b]`` is the packed row (over ``rank``) of boundary vertices the
    in-boundary ``b`` reaches locally.  The closure those rows spell out is
    quadratic in the boundary; what is stored instead has the same
    reachability from every in-boundary onto every boundary vertex and
    class vertex, and is linear in the boundary on the graphs measured:

    * in-boundaries with equal *closed* rows (row plus own bit) are exactly
      the mutually reachable ones; each such group becomes one cycle;
    * between groups, and from groups onto backward classes (all members of
      a backward class are reached by the same in-boundaries, so one
      representative bit stands for the class), only the transitive
      *reduction* is kept: group ``g`` keeps an edge onto ``h`` unless
      another group it reaches already reaches ``h``.

    The reduction runs on the rows themselves.  ``below[h]`` — the closed
    row of ``h`` minus its own members — is everything ``h`` makes
    redundant; ORing it over the groups ``g`` reaches leaves exactly the
    reduction edges uncovered.  A group already below a visited one is
    skipped (its ``below`` row is contained in the visitor's), so ``g``
    costs three big-int operations per group *visited*, in ascending id
    order: exactly the groups it keeps edges onto when ids follow the
    topological order, every group it reaches when they run against it, in
    between otherwise — never a tuple per closure pair.

    An edge onto a backward class leaves the group through the forward
    class of one of its members when it has one (``class_edges``; sound
    because forward-equivalent members reach the same out-boundaries) and
    through its head vertex when the group is overlap-only.
    """
    ids = rank.ids
    rank_of = rank.rank_of
    member_to_forward = summary.member_to_forward_class()
    member_to_backward = summary.member_to_backward_class()

    groups: Dict[int, List[int]] = {}
    for vertex in sorted(summary.in_boundaries):
        groups.setdefault(rows.get(vertex, 0) | 1 << rank_of[vertex], []).append(vertex)

    # One bit stands for each group (its smallest member, the *head*).
    head_mask = 0
    below: Dict[int, int] = {}
    for closed_row, members in groups.items():
        head_bit = 1 << rank_of[members[0]]
        head_mask |= head_bit
        below[head_bit] = closed_row & ~rank.pack(members)
    sink_mask = rank.pack(cls.representative for cls in summary.backward_classes)

    member_edges = summary.member_edges
    class_edges = summary.class_edges
    for closed_row, members in groups.items():
        head = members[0]
        if len(members) > 1:
            member_edges.update(zip(members, members[1:] + members[:1]))
        reached = closed_row & head_mask & ~(1 << rank_of[head])
        covered = 0
        pending = reached
        while pending:
            head_bit = pending & -pending
            covered |= below[head_bit]
            pending &= ~(covered | head_bit)
        for r in iter_bits(reached & ~covered):
            member_edges.add((head, ids[r]))
        sinks = closed_row & sink_mask & ~covered
        if sinks:
            exit_class = next(
                (member_to_forward[m] for m in members if m in member_to_forward), None
            )
            for r in iter_bits(sinks):
                backward_class = member_to_backward[ids[r]]
                if exit_class is None:
                    member_edges.add((head, backward_class))
                else:
                    class_edges.add((exit_class, backward_class))
