"""A compact, mutable directed graph.

This is the data-graph substrate from Definition 1 of the paper: a directed
graph ``G(V, E, L, phi)`` with vertices ``V``, edges ``E`` and a bijective
label mapping ``phi: V -> L``.  Vertices are dense-ish non-negative integers;
labels are optional and default to the vertex id itself.

The implementation favours predictable, explicit behaviour over raw speed:
adjacency is stored as per-vertex sets for both successors and predecessors so
that edge insertion, deletion and membership tests are O(1) on average, and
vertex-induced subgraphs (the building block of graph partitioning) are cheap
to construct.

For batched traversal the hot paths do not walk these sets: :meth:`DiGraph.csr`
hands out an immutable :class:`~repro.graph.csr.CSRGraph` snapshot, cached
until the next mutation dirties it (see :mod:`repro.graph.csr`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Optional, Set, Tuple

from repro.graph.csr import CSRGraph


class GraphError(Exception):
    """Raised for invalid graph operations (missing vertices, bad labels...)."""


def _filled_sets(
    succ: Dict[int, Set[int]], selected: Optional[Set[int]] = None
) -> Dict[int, Set[int]]:
    """Copies of the successor sets of ``selected`` (default: every vertex).

    Each copy is filled element by element in the source set's order, so
    it iterates exactly like the set the equivalent ``add_edge`` calls
    would leave behind — a bulk ``set(s)`` or ``s & selected`` can size
    its table differently and iterate in another order, and the
    partitioners' region growing walks these sets: a different order is a
    different partition.
    """
    if selected is None:
        return {vertex: {w for w in succs} for vertex, succs in succ.items()}
    return {vertex: {w for w in succ[vertex] if w in selected} for vertex in selected}


def _predecessor_sets(succ: Dict[int, Set[int]]) -> Dict[int, Set[int]]:
    """Predecessor sets of ``succ``, filled in source order (see above)."""
    pred: Dict[int, Set[int]] = {vertex: set() for vertex in succ}
    for u, targets in succ.items():
        for v in targets:
            pred[v].add(u)
    return pred


class DiGraph:
    """A mutable directed graph with integer vertices and optional labels."""

    def __init__(self) -> None:
        self._succ: Dict[int, Set[int]] = {}
        self._pred: Dict[int, Set[int]] = {}
        self._labels: Dict[int, Hashable] = {}
        self._label_index: Dict[Hashable, int] = {}
        self._num_edges = 0
        self._next_vertex = 0
        # Lazily built CSR snapshot (see :meth:`csr`); ``None`` doubles as the
        # dirty flag — every topology mutation resets it.
        self._csr: Optional[CSRGraph] = None

    # ------------------------------------------------------------------ #
    # CSR snapshot
    # ------------------------------------------------------------------ #
    def csr(self) -> CSRGraph:
        """Return the cached :class:`~repro.graph.csr.CSRGraph` snapshot.

        The snapshot is built on first use and reused until the next topology
        mutation (``add_vertex``/``add_edge``/``remove_vertex``/
        ``remove_edge``), each of which marks it dirty so a fresh snapshot is
        built lazily on the next call.  Callers must treat the returned
        object as immutable.
        """
        if self._csr is None:
            self._csr = CSRGraph.from_digraph(self)
        return self._csr

    def _invalidate_csr(self) -> None:
        self._csr = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        vertices: Optional[Iterable[int]] = None,
    ) -> "DiGraph":
        """Build a graph from an iterable of ``(u, v)`` edges.

        ``vertices`` may list additional isolated vertices to include.
        """
        graph = cls()
        if vertices is not None:
            for vertex in vertices:
                graph.add_vertex(vertex)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def copy(self) -> "DiGraph":
        """Return a deep copy of the graph (labels included).

        The adjacency sets are built in bulk, not through ``add_edge``, and
        the cached CSR snapshot (immutable) is shared with the copy —
        whichever graph mutates first drops only its own reference.
        """
        clone = DiGraph()
        clone._succ = _filled_sets(self._succ)
        clone._pred = _predecessor_sets(clone._succ)
        clone._labels = dict(self._labels)
        clone._label_index = dict(self._label_index)
        clone._num_edges = self._num_edges
        clone._next_vertex = self._next_vertex
        clone._csr = self._csr
        return clone

    # ------------------------------------------------------------------ #
    # vertices
    # ------------------------------------------------------------------ #
    @property
    def next_vertex_id(self) -> int:
        """The id :meth:`add_vertex` allocates when given none (above every id used)."""
        return self._next_vertex

    def add_vertex(self, vertex: Optional[int] = None, label: Hashable = None) -> int:
        """Add a vertex and return its id.

        If ``vertex`` is ``None`` a fresh id is allocated.  Adding an existing
        vertex is a no-op (the label, if given, must not conflict).
        """
        if vertex is None:
            vertex = self._next_vertex
        if vertex < 0:
            raise GraphError(f"vertex ids must be non-negative, got {vertex}")
        if vertex in self._succ:
            if label is not None and self._labels.get(vertex) not in (None, label):
                raise GraphError(
                    f"vertex {vertex} already has label {self._labels[vertex]!r}"
                )
            if label is not None and vertex not in self._labels:
                self._set_label(vertex, label)
            return vertex
        self._succ[vertex] = set()
        self._pred[vertex] = set()
        self._invalidate_csr()
        if label is not None:
            self._set_label(vertex, label)
        if vertex >= self._next_vertex:
            self._next_vertex = vertex + 1
        return vertex

    def _set_label(self, vertex: int, label: Hashable) -> None:
        existing = self._label_index.get(label)
        if existing is not None and existing != vertex:
            raise GraphError(f"label {label!r} already maps to vertex {existing}")
        self._labels[vertex] = label
        self._label_index[label] = vertex

    def remove_vertex(self, vertex: int) -> None:
        """Remove a vertex and all incident edges."""
        self._require_vertex(vertex)
        for succ in list(self._succ[vertex]):
            self.remove_edge(vertex, succ)
        for pred in list(self._pred[vertex]):
            self.remove_edge(pred, vertex)
        del self._succ[vertex]
        del self._pred[vertex]
        self._invalidate_csr()
        label = self._labels.pop(vertex, None)
        if label is not None:
            self._label_index.pop(label, None)

    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._succ

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertex ids."""
        return iter(self._succ)

    @property
    def num_vertices(self) -> int:
        return len(self._succ)

    def label_of(self, vertex: int) -> Hashable:
        """Return the label of ``vertex`` (defaults to the vertex id)."""
        self._require_vertex(vertex)
        return self._labels.get(vertex, vertex)

    def vertex_by_label(self, label: Hashable) -> int:
        """Return the vertex carrying ``label``."""
        try:
            return self._label_index[label]
        except KeyError:
            raise GraphError(f"no vertex with label {label!r}") from None

    # ------------------------------------------------------------------ #
    # edges
    # ------------------------------------------------------------------ #
    def add_edge(self, u: int, v: int) -> bool:
        """Add edge ``(u, v)``, creating endpoints if needed.

        Returns ``True`` if the edge was new, ``False`` if it already existed.
        Self-loops are allowed (they are irrelevant for reachability but may
        appear in real datasets).
        """
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._succ[u]:
            return False
        self._succ[u].add(v)
        self._pred[v].add(u)
        self._num_edges += 1
        self._invalidate_csr()
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove edge ``(u, v)``.  Returns ``True`` if it existed."""
        if u not in self._succ or v not in self._succ[u]:
            return False
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        self._num_edges -= 1
        self._invalidate_csr()
        return True

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._succ and v in self._succ[u]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all ``(u, v)`` edges."""
        for u, succs in self._succ.items():
            for v in succs:
                yield (u, v)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------ #
    # adjacency
    # ------------------------------------------------------------------ #
    def successors(self, vertex: int) -> Set[int]:
        """Return the set of out-neighbours of ``vertex`` (do not mutate)."""
        self._require_vertex(vertex)
        return self._succ[vertex]

    def predecessors(self, vertex: int) -> Set[int]:
        """Return the set of in-neighbours of ``vertex`` (do not mutate)."""
        self._require_vertex(vertex)
        return self._pred[vertex]

    def out_degree(self, vertex: int) -> int:
        return len(self.successors(vertex))

    def in_degree(self, vertex: int) -> int:
        return len(self.predecessors(vertex))

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def induced_subgraph(self, vertices: Iterable[int]) -> "DiGraph":
        """Return the vertex-induced subgraph over ``vertices``.

        Vertex ids and labels are preserved, which is what graph partitioning
        (Section 2 of the paper) requires: a partition ``G_i`` is exactly the
        vertex-induced subgraph over ``V_i``.
        """
        selected = set(vertices)
        for vertex in selected - self._succ.keys():
            self._require_vertex(vertex)
        sub = DiGraph()
        sub._succ = _filled_sets(self._succ, selected)
        sub._pred = _predecessor_sets(sub._succ)
        sub._labels = {
            vertex: self._labels[vertex] for vertex in selected if vertex in self._labels
        }
        sub._label_index = {label: vertex for vertex, label in sub._labels.items()}
        sub._num_edges = sum(map(len, sub._succ.values()))
        sub._next_vertex = max(selected) + 1 if selected else 0
        return sub

    def reverse(self) -> "DiGraph":
        """Return a new graph with every edge reversed."""
        rev = DiGraph()
        for vertex in self._succ:
            rev.add_vertex(vertex, label=self._labels.get(vertex))
        for u, v in self.edges():
            rev.add_edge(v, u)
        return rev

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def _require_vertex(self, vertex: int) -> None:
        if vertex not in self._succ:
            raise GraphError(f"vertex {vertex} not in graph")

    def __contains__(self, vertex: int) -> bool:
        return self.has_vertex(vertex)

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
