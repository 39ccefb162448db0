"""The :class:`GraphPartitioning` abstraction.

A ``GraphPartitioning`` fixes the partitioning function ``rho: V -> {0..k-1}``
and exposes everything Section 2 of the paper derives from it: the local
subgraphs ``G_i``, the cut ``C``, and the in-/out-boundary sets ``I_i`` and
``O_i``.

The cut and the boundary sets are *maintained*, not re-derived: an update
that edits the data graph reports the edit (:meth:`GraphPartitioning.
edge_added`, :meth:`~GraphPartitioning.edge_removed`,
:meth:`~GraphPartitioning.vertex_added`, :meth:`~GraphPartitioning.
vertex_removed`) and the cut follows in O(1) per cut edge touched, so
reading the cut or a partition's boundaries never walks the graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set, Tuple

from repro.graph.digraph import DiGraph


class PartitioningError(Exception):
    """Raised when an assignment is inconsistent with the graph."""


class GraphPartitioning:
    """A ``k``-way vertex partitioning of a directed data graph."""

    def __init__(
        self,
        graph: DiGraph,
        assignment: Mapping[int, int],
        num_partitions: int = None,
    ) -> None:
        self.graph = graph
        self.assignment: Dict[int, int] = dict(assignment)
        missing = [v for v in graph.vertices() if v not in self.assignment]
        if missing:
            raise PartitioningError(
                f"{len(missing)} vertices have no partition assignment "
                f"(e.g. {missing[:5]})"
            )
        observed = max(self.assignment.values(), default=-1) + 1
        self.num_partitions = num_partitions if num_partitions is not None else observed
        if observed > self.num_partitions:
            raise PartitioningError(
                f"assignment uses partition id {observed - 1} but only "
                f"{self.num_partitions} partitions were declared"
            )
        for vertex, pid in self.assignment.items():
            if pid < 0:
                raise PartitioningError(f"negative partition id for vertex {vertex}")
        self._partition_vertices: List[Set[int]] = [
            set() for _ in range(self.num_partitions)
        ]
        for vertex, pid in self.assignment.items():
            self._partition_vertices[pid].add(vertex)
        # The cut as an insertion-ordered edge set (a delete is O(1)), and
        # per partition the boundary vertices with their number of incoming
        # (outgoing) cut edges: a vertex stays a boundary until its last
        # cut edge goes.
        self._cut: Dict[Tuple[int, int], None] = {}
        self._in_counts: List[Dict[int, int]] = [{} for _ in range(self.num_partitions)]
        self._out_counts: List[Dict[int, int]] = [{} for _ in range(self.num_partitions)]
        for u, v in graph.edges():
            self.edge_added(u, v)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def partition_of(self, vertex: int) -> int:
        """Return the partition id of ``vertex`` (the function ``rho``)."""
        try:
            return self.assignment[vertex]
        except KeyError:
            raise PartitioningError(f"vertex {vertex} is not assigned") from None

    def vertices_of(self, partition_id: int) -> Set[int]:
        """Return the vertex set ``V_i`` of partition ``partition_id``."""
        self._check_partition(partition_id)
        return self._partition_vertices[partition_id]

    def local_subgraph(self, partition_id: int) -> DiGraph:
        """Return the vertex-induced local subgraph ``G_i``."""
        return self.graph.induced_subgraph(self.vertices_of(partition_id))

    # ------------------------------------------------------------------ #
    # cut and boundaries (Definition 3)
    # ------------------------------------------------------------------ #
    def cut_edges(self) -> List[Tuple[int, int]]:
        """Return all edges of the cut ``C`` (endpoints in distinct partitions)."""
        return list(self._cut)

    def cut_graph(self) -> DiGraph:
        """Return the cut ``C`` as its own graph (boundary vertices + cut edges)."""
        cut = DiGraph()
        for u, v in self._cut:
            cut.add_vertex(u, label=self.graph.label_of(u))
            cut.add_vertex(v, label=self.graph.label_of(v))
            cut.add_edge(u, v)
        return cut

    def in_boundaries(self, partition_id: int) -> Set[int]:
        """Vertices of ``G_i`` with an incoming cut edge (``I_i``)."""
        self._check_partition(partition_id)
        return set(self._in_counts[partition_id])

    def out_boundaries(self, partition_id: int) -> Set[int]:
        """Vertices of ``G_i`` with an outgoing cut edge (``O_i``)."""
        self._check_partition(partition_id)
        return set(self._out_counts[partition_id])

    def boundary_vertices(self) -> Set[int]:
        """All boundary vertices across all partitions (vertices of ``C``)."""
        vertices: Set[int] = set()
        for counts in (*self._in_counts, *self._out_counts):
            vertices.update(counts)
        return vertices

    # ------------------------------------------------------------------ #
    # maintenance: the data graph reports its edits
    # ------------------------------------------------------------------ #
    def edge_added(self, u: int, v: int) -> Set[int]:
        """Record the new graph edge ``(u, v)`` (a no-op unless it is cut).

        Returns the partitions whose boundary sets changed: ``u``'s if ``u``
        entered its ``O_i``, ``v``'s if ``v`` entered its ``I_j``.
        """
        pid_u, pid_v = self.assignment[u], self.assignment[v]
        if pid_u == pid_v or (u, v) in self._cut:
            return set()
        self._cut[(u, v)] = None
        changed = set()
        for counts, vertex, pid in (
            (self._out_counts[pid_u], u, pid_u),
            (self._in_counts[pid_v], v, pid_v),
        ):
            count = counts.get(vertex, 0)
            counts[vertex] = count + 1
            if not count:
                changed.add(pid)
        return changed

    def edge_removed(self, u: int, v: int) -> Set[int]:
        """Record that the graph lost edge ``(u, v)`` (a no-op unless it is cut).

        Returns the partitions whose boundary sets changed: ``u``'s if ``u``
        left its ``O_i``, ``v``'s if ``v`` left its ``I_j``.
        """
        if (u, v) not in self._cut:
            return set()
        del self._cut[(u, v)]
        pid_u, pid_v = self.assignment[u], self.assignment[v]
        changed = set()
        for counts, vertex, pid in (
            (self._out_counts[pid_u], u, pid_u),
            (self._in_counts[pid_v], v, pid_v),
        ):
            if counts[vertex] == 1:
                del counts[vertex]
                changed.add(pid)
            else:
                counts[vertex] -= 1
        return changed

    def vertex_added(self, vertex: int, partition_id: int) -> None:
        """Assign the new isolated vertex ``vertex`` to ``partition_id``."""
        self._check_partition(partition_id)
        self.assignment[vertex] = partition_id
        self._partition_vertices[partition_id].add(vertex)

    def vertex_removed(self, vertex: int) -> None:
        """Unassign ``vertex`` and drop its cut edges.

        Call it while ``vertex`` is still in the graph: its incident edges
        are read from there.
        """
        for succ in self.graph.successors(vertex):
            self.edge_removed(vertex, succ)
        for pred in self.graph.predecessors(vertex):
            self.edge_removed(pred, vertex)
        self._partition_vertices[self.partition_of(vertex)].discard(vertex)
        del self.assignment[vertex]

    # ------------------------------------------------------------------ #
    # query partitioning and statistics
    # ------------------------------------------------------------------ #
    def split_query(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> Dict[int, Tuple[Set[int], Set[int]]]:
        """Split a DSR query ``S ⇝ T`` into per-partition subqueries.

        Returns ``{partition_id: (S_i, T_i)}`` for every partition with at
        least one local source or target (Algorithm 2, line 2).
        """
        per_partition: Dict[int, Tuple[Set[int], Set[int]]] = {}
        for source in sources:
            pid = self.partition_of(source)
            per_partition.setdefault(pid, (set(), set()))[0].add(source)
        for target in targets:
            pid = self.partition_of(target)
            per_partition.setdefault(pid, (set(), set()))[1].add(target)
        return per_partition

    def partition_sizes(self) -> List[Tuple[int, int]]:
        """Return ``[(|V_i|, |E_i|)]`` for every partition."""
        sizes = []
        for pid in range(self.num_partitions):
            local = self.local_subgraph(pid)
            sizes.append((local.num_vertices, local.num_edges))
        return sizes

    def cut_size(self) -> int:
        """Number of edges in the cut ``C``."""
        return len(self._cut)

    def edge_balance(self) -> float:
        """Max-over-average edge imbalance across partitions (1.0 = perfect)."""
        sizes = [edges for _, edges in self.partition_sizes()]
        if not sizes or sum(sizes) == 0:
            return 1.0
        average = sum(sizes) / len(sizes)
        if average == 0:
            return 1.0
        return max(sizes) / average

    def summary(self) -> Dict[str, object]:
        """Human-readable summary statistics (used by benches and examples)."""
        return {
            "num_partitions": self.num_partitions,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "cut_edges": self.cut_size(),
            "cut_fraction": (
                self.cut_size() / self.graph.num_edges if self.graph.num_edges else 0.0
            ),
            "partition_sizes": self.partition_sizes(),
            "edge_balance": round(self.edge_balance(), 3),
        }

    def _check_partition(self, partition_id: int) -> None:
        if not 0 <= partition_id < self.num_partitions:
            raise PartitioningError(
                f"partition id {partition_id} out of range [0, {self.num_partitions})"
            )


def make_partitioning(
    graph: DiGraph,
    num_partitions: int,
    strategy: str = "metis",
    seed: int = 0,
) -> GraphPartitioning:
    """Partition ``graph`` with the named strategy (``"hash"`` or ``"metis"``)."""
    # Imported lazily to avoid an import cycle with the partitioner modules.
    from repro.partition.hash_partitioner import hash_partition
    from repro.partition.metis_like import metis_like_partition

    if num_partitions < 1:
        raise PartitioningError("num_partitions must be >= 1")
    if strategy == "hash":
        return hash_partition(graph, num_partitions, seed=seed)
    if strategy in ("metis", "min-cut", "mincut"):
        return metis_like_partition(graph, num_partitions, seed=seed)
    raise ValueError(f"unknown partitioning strategy: {strategy!r}")
