"""Forward- and backward-equivalence sets over partition boundaries.

Definition 5 of the paper: two in-boundaries ``b1, b2`` of partition ``G_i``
are *forward-equivalent* iff they reach exactly the same vertices of
``V_i − I_i``; two out-boundaries are *backward-equivalent* iff they are
reached by exactly the same vertices of ``V_i − O_i``.  Equivalent boundaries
are replaced by a single virtual vertex, which shrinks both the boundary graph
and the messages exchanged at query time.

Algorithm 3 computes the classes by (1) condensing the partition into its SCC
DAG — same-SCC boundaries are trivially equivalent — and (2) comparing
reachability signatures over the *direct successors* ``S(I_i) − I_i`` only,
which is sufficient because any path to a vertex outside ``I_i`` must pass
through such a successor.

Two refinements relative to the paper (both strictly conservative — they can
only split classes, never merge inequivalent vertices — and they make the
compressed index lossless *without* per-edge member labels):

* classes are formed only over ``I_i \\ O_i`` (resp. ``O_i \\ I_i``);
  *overlap* vertices ``I_i ∩ O_i`` are always kept at member level;
* the grouping signature additionally includes reachability to the overlap
  vertices, so that any two members of a class behave identically with
  respect to every vertex that can route a path out of the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.graph.digraph import DiGraph
from repro.reachability import bitset_msbfs
from repro.reachability.base import ReachabilityIndex
from repro.reachability.factory import make_reachability_index
from repro.reachability.packed import VertexRank

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class EquivalenceClass:
    """A set of mutually equivalent boundary vertices of one partition."""

    class_id: int
    partition_id: int
    kind: str  # FORWARD (in-virtual vertex) or BACKWARD (out-virtual vertex)
    members: FrozenSet[int]
    representative: int

    def __post_init__(self) -> None:
        if self.kind not in (FORWARD, BACKWARD):
            raise ValueError(f"invalid equivalence kind {self.kind!r}")
        if self.representative not in self.members:
            raise ValueError("representative must be one of the members")

    def __len__(self) -> int:
        return len(self.members)

    def message_size(self) -> int:
        return 4 * (len(self.members) + 3)


class ClassIdAllocator:
    """Allocates globally unique virtual-vertex ids above the real id range."""

    def __init__(self, first_id: int) -> None:
        self._next = first_id

    def allocate(self) -> int:
        value = self._next
        self._next += 1
        return value

    @property
    def next_id(self) -> int:
        return self._next


def _successor_targets(
    graph: DiGraph, boundary: Set[int], overlap: Set[int]
) -> Set[int]:
    """Targets used for the forward signature: ``S(I) − I`` plus overlap."""
    successors: Set[int] = set()
    for vertex in boundary:
        successors.update(graph.successors(vertex))
    return (successors - boundary) | overlap


def _predecessor_targets(
    graph: DiGraph, boundary: Set[int], overlap: Set[int]
) -> Set[int]:
    """Targets used for the backward signature: ``P(O) − O`` plus overlap."""
    predecessors: Set[int] = set()
    for vertex in boundary:
        predecessors.update(graph.predecessors(vertex))
    return (predecessors - boundary) | overlap


def _classes_by_signature(
    signatures: Dict[int, int],
    partition_id: int,
    kind: str,
    allocator: ClassIdAllocator,
) -> List[EquivalenceClass]:
    """One class per distinct signature row, in order of smallest member."""
    # Ascending insertion: every group opens at its smallest member, so the
    # dict already lists the groups in that order.
    groups: Dict[int, List[int]] = {}
    for vertex in sorted(signatures):
        groups.setdefault(signatures[vertex], []).append(vertex)
    return [
        EquivalenceClass(
            class_id=allocator.allocate(),
            partition_id=partition_id,
            kind=kind,
            members=frozenset(members),
            representative=members[0],
        )
        for members in groups.values()
    ]


def compute_forward_classes(
    local_graph: DiGraph,
    in_boundaries: Set[int],
    out_boundaries: Set[int],
    partition_id: int,
    allocator: ClassIdAllocator,
    local_index: ReachabilityIndex = None,
) -> List[EquivalenceClass]:
    """Compute the forward-equivalent classes of ``in_boundaries``.

    Classes cover only ``I_i \\ O_i``; overlap vertices stay at member level.
    A candidate's signature is its packed reachability row masked to the
    signature targets, so grouping compares one int per candidate.
    """
    overlap = in_boundaries & out_boundaries
    candidates = in_boundaries - out_boundaries
    if not candidates:
        return []
    if local_index is None:
        local_index = make_reachability_index("msbfs", local_graph)
    rank = VertexRank.from_csr(local_graph.csr())
    target_mask = rank.pack(_successor_targets(local_graph, in_boundaries, overlap))
    signatures = local_index.set_reachability_bits(candidates, rank, target_mask)
    return _classes_by_signature(signatures, partition_id, FORWARD, allocator)


def compute_backward_classes(
    local_graph: DiGraph,
    in_boundaries: Set[int],
    out_boundaries: Set[int],
    partition_id: int,
    allocator: ClassIdAllocator,
) -> List[EquivalenceClass]:
    """Compute the backward-equivalent classes of ``out_boundaries``.

    Backward equivalence over the original graph is forward equivalence over
    the reversed graph, so the signature rows come from a reverse sweep of
    the same CSR snapshot — no reversed graph is materialised.
    """
    overlap = in_boundaries & out_boundaries
    candidates = out_boundaries - in_boundaries
    if not candidates:
        return []
    csr = local_graph.csr()
    target_mask = VertexRank.from_csr(csr).pack(
        _predecessor_targets(local_graph, out_boundaries, overlap)
    )
    signatures = bitset_msbfs.set_reachability_rows(
        csr, candidates, target_mask, reverse=True
    )
    return _classes_by_signature(signatures, partition_id, BACKWARD, allocator)


def compute_equivalence_sets(
    local_graph: DiGraph,
    in_boundaries: Set[int],
    out_boundaries: Set[int],
    partition_id: int,
    allocator: ClassIdAllocator,
    local_index_name: str = "msbfs",
) -> Tuple[List[EquivalenceClass], List[EquivalenceClass]]:
    """Convenience wrapper computing both directions at once."""
    forward_index = make_reachability_index(local_index_name, local_graph)
    forward = compute_forward_classes(
        local_graph,
        in_boundaries,
        out_boundaries,
        partition_id,
        allocator,
        local_index=forward_index,
    )
    backward = compute_backward_classes(
        local_graph,
        in_boundaries,
        out_boundaries,
        partition_id,
        allocator,
    )
    return forward, backward


def singleton_classes(
    members: Iterable[int],
    partition_id: int,
    kind: str,
    allocator: ClassIdAllocator,
) -> List[EquivalenceClass]:
    """One class per member — used when the equivalence optimisation is off."""
    classes = []
    for member in sorted(set(members)):
        classes.append(
            EquivalenceClass(
                class_id=allocator.allocate(),
                partition_id=partition_id,
                kind=kind,
                members=frozenset([member]),
                representative=member,
            )
        )
    return classes
