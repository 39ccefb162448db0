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


def class_id(representative: int, kind: str) -> int:
    """The id of the class of ``kind`` whose smallest member is ``representative``.

    ``-1 - 2 * representative``, one less for a backward class: a pure
    function of the class, so re-summarising a partition whose classes did
    not change yields the same ids, and the same compound-graph vertices.
    The representative also names the partition, since a vertex belongs to
    exactly one, so no two classes of one epoch share an id.  Real ids are
    non-negative (:meth:`repro.graph.digraph.DiGraph.add_vertex` refuses
    anything else), so the two ranges are disjoint by construction, and
    every class id lies in ``[-2 * (max real id + 1), 0)``.
    """
    return -1 - 2 * representative - (kind == BACKWARD)


class ClassIdAllocator:
    """Retired: class ids are canonical (:func:`class_id`), nothing allocates them.

    Only the name and its constructor remain, because the spine benchmark's
    traced run (``benchmarks/spine/spinelib/ladder.py``) still builds one
    and passes it to :func:`repro.core.summary.build_partition_summary`,
    which ignores it.  Delete both with the benchmark's next change.
    """

    def __init__(self, first_id: int = 0) -> None:
        """Take and ignore the first id the old allocator counted up from."""


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
) -> List[EquivalenceClass]:
    """One class per distinct signature row, in order of smallest member."""
    # Ascending insertion: every group opens at its smallest member, so the
    # dict already lists the groups in that order.
    groups: Dict[int, List[int]] = {}
    for vertex in sorted(signatures):
        groups.setdefault(signatures[vertex], []).append(vertex)
    return [
        EquivalenceClass(
            class_id=class_id(members[0], kind),
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
    )


def compute_backward_classes(
    local_graph: DiGraph,
    in_boundaries: Set[int],
    out_boundaries: Set[int],
    partition_id: int,
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
    )


def _classes_by_rows(
    local: LocalCondensation,
    candidates: Set[int],
    targets: Set[int],
    reverse: bool,
    partition_id: int,
    kind: str,
) -> List[EquivalenceClass]:
    rows = local.rows(candidates, targets, reverse)
    component_of = local.component_of
    signatures = {vertex: rows[component_of[vertex]] for vertex in candidates}
    return _classes_by_signature(signatures, partition_id, kind)


def singleton_classes(
    members: Iterable[int],
    partition_id: int,
    kind: str,
) -> List[EquivalenceClass]:
    """One class per member — used when the equivalence optimisation is off."""
    classes = []
    for member in sorted(set(members)):
        classes.append(
            EquivalenceClass(
                class_id=class_id(member, kind),
                partition_id=partition_id,
                kind=kind,
                members=frozenset([member]),
                representative=member,
            )
        )
    return classes
