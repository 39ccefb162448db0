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

Both builders follow the algorithm literally: the partition is condensed
once (:class:`LocalCondensation`) and every signature is a row over the
*components* of the targets, harvested by one pass over the condensation —
equal component rows mean equal vertex rows, since a component's members are
reached together.

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

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.scc import numbered_dag
from repro.reachability import bitset_msbfs
from repro.reachability.packed import pack_ranks

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
    """Allocates globally unique virtual-vertex ids above the real id range.

    Real vertices inserted after the build share the id space: each one
    claims its id here first (:meth:`reserve`, through
    :func:`claim_real_id`), so the allocator skips it, and an id already
    handed to a class is refused as a real one.  The class ids are exactly
    ``[first_id, next_id)`` minus the reserved real ids.  Thread-safe: a
    background flush allocates while an update thread reserves.
    """

    def __init__(self, first_id: int) -> None:
        self._first = first_id
        self._next = first_id
        #: Real ids reserved at or above ``first_id``.
        self._real: Set[int] = set()
        self._lock = threading.Lock()

    def allocate(self) -> int:
        with self._lock:
            while self._next in self._real:
                self._next += 1
            value = self._next
            self._next += 1
            return value

    def reserve(self, vertex: int) -> bool:
        """Claim ``vertex`` as a real id; ``False`` if it was handed to a class."""
        with self._lock:
            if self._first <= vertex < self._next and vertex not in self._real:
                return False
            if vertex >= self._first:
                self._real.add(vertex)
            return True

    @property
    def next_id(self) -> int:
        return self._next


def claim_real_id(
    allocators: Iterable[ClassIdAllocator], vertex: Optional[int], fresh: int
) -> int:
    """The id a newly inserted real vertex takes, reserved on every allocator.

    ``vertex=None`` takes the lowest id from ``fresh`` (the graph's next
    unused id) up that no allocator has handed to a class or will hand out
    next.  An explicit ``vertex`` that one of them already handed to a
    class raises ``ValueError``: a real vertex with a class's id would be
    merged with the class vertex in every compound graph and reach whatever
    the class reaches.
    """
    allocators = list(allocators)
    if vertex is not None:
        if not all(allocator.reserve(vertex) for allocator in allocators):
            raise ValueError(f"vertex id {vertex} is a virtual class id of the index")
        return vertex
    candidate = max([fresh, *(allocator.next_id for allocator in allocators)])
    # A concurrent flush may allocate the candidate between the read above
    # and the reservation; the next id up is then free.
    while not all(allocator.reserve(candidate) for allocator in allocators):
        candidate += 1
    return candidate


class LocalCondensation(NamedTuple):
    """A partition's local graph as a topologically numbered DAG.

    ``component_of`` maps every local vertex to its dense index in ``dag``
    (:func:`repro.graph.scc.numbered_dag`: the local snapshot itself when it
    is already numbered, its SCC condensation otherwise).
    """

    dag: CSRGraph
    component_of: Dict[int, int]

    @classmethod
    def of(cls, local_graph: DiGraph) -> "LocalCondensation":
        return cls(*numbered_dag(local_graph))

    def rows(
        self, sources: Iterable[int], targets: Iterable[int], reverse: bool = False
    ) -> Dict[int, int]:
        """``{component: row}`` for the components of ``sources``.

        A row packs, over dense DAG indices, the components of ``targets``
        the component reaches (with ``reverse=True``: is reached by), its
        own included when it holds a target — one pass over the DAG per
        kernel batch.
        """
        component_of = self.component_of
        ids = self.dag.ids
        components = sorted({component_of[vertex] for vertex in sources})
        mask = pack_ranks(sorted({component_of[vertex] for vertex in targets}))
        rows = bitset_msbfs.set_reachability_rows(
            self.dag, [ids[c] for c in components], mask, reverse=reverse
        )
        return {c: rows[ids[c]] for c in components}


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
    local: Optional[LocalCondensation] = None,
) -> List[EquivalenceClass]:
    """Compute the forward-equivalent classes of ``in_boundaries``.

    Classes cover only ``I_i \\ O_i``; overlap vertices stay at member level.
    A candidate's signature is its component's packed row over the target
    components, so grouping compares one int per candidate.  ``local`` is
    the partition's condensation when the caller already holds it.
    """
    overlap = in_boundaries & out_boundaries
    candidates = in_boundaries - out_boundaries
    if not candidates:
        return []
    return _classes_by_rows(
        local or LocalCondensation.of(local_graph),
        candidates,
        _successor_targets(local_graph, in_boundaries, overlap),
        False,
        partition_id,
        FORWARD,
        allocator,
    )


def compute_backward_classes(
    local_graph: DiGraph,
    in_boundaries: Set[int],
    out_boundaries: Set[int],
    partition_id: int,
    allocator: ClassIdAllocator,
    local: Optional[LocalCondensation] = None,
) -> List[EquivalenceClass]:
    """Compute the backward-equivalent classes of ``out_boundaries``.

    Backward equivalence over the original graph is forward equivalence over
    the reversed graph, so the signature rows come from a reverse sweep of
    the same condensation — no reversed graph is materialised.
    """
    overlap = in_boundaries & out_boundaries
    candidates = out_boundaries - in_boundaries
    if not candidates:
        return []
    return _classes_by_rows(
        local or LocalCondensation.of(local_graph),
        candidates,
        _predecessor_targets(local_graph, out_boundaries, overlap),
        True,
        partition_id,
        BACKWARD,
        allocator,
    )


def _classes_by_rows(
    local: LocalCondensation,
    candidates: Set[int],
    targets: Set[int],
    reverse: bool,
    partition_id: int,
    kind: str,
    allocator: ClassIdAllocator,
) -> List[EquivalenceClass]:
    rows = local.rows(candidates, targets, reverse)
    component_of = local.component_of
    signatures = {vertex: rows[component_of[vertex]] for vertex in candidates}
    return _classes_by_signature(signatures, partition_id, kind, allocator)


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
