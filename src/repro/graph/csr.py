"""Immutable compressed-sparse-row (CSR) snapshots of a :class:`DiGraph`.

The mutable :class:`~repro.graph.digraph.DiGraph` stores adjacency as
per-vertex Python sets — ideal for updates, terrible for batched traversal:
every BFS level chases hash buckets and re-boxes vertex ids.  A
:class:`CSRGraph` freezes the same topology into flat ``array('q')``
offset/target buffers over a *dense* vertex numbering ``0..n-1``, which is
the layout every batched kernel in :mod:`repro.reachability.bitset_msbfs`
and the SCC condensation in :mod:`repro.graph.scc` iterate over.  The
forward direction is built eagerly; the reverse buffers are derived lazily
from the forward arrays on first use (a counting sort — most consumers only
ever walk forward, and skipping the reverse half halves build cost).

Snapshots are **immutable by contract**: nothing in this module ever writes
to a built snapshot, and consumers must not either.  Mutating the source
``DiGraph`` does not change an existing snapshot — it *invalidates* the
graph's cached one (a dirty flag inside ``DiGraph``), so the next call to
``DiGraph.csr()`` rebuilds lazily.  Hold onto a snapshot only for as long as
you want a frozen view.

A snapshot need not come from a ``DiGraph`` at all: :meth:`CSRGraph.from_edges`
builds one in bulk from vertex and edge lists (how every compound graph is
assembled), and :func:`repro.graph.scc.condense` emits its condensation
straight into one.  Snapshots answer the read side of the ``DiGraph`` API
(``csr``, ``vertices``, ``edges``, ``has_vertex``, ``successors``,
``predecessors``, ``num_vertices``, ``num_edges``), so strategies and the
reference traversals accept either.

Dense indices vs. vertex ids
----------------------------
``ids[i]`` maps the dense index ``i`` back to the original vertex id and
``index_of(v)`` maps the other way.  Vertex ids are sorted before numbering
and every adjacency run is sorted too, so two structurally equal graphs
always produce byte-identical snapshots (determinism matters for tests and
for reproducible benchmark numbers).
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (digraph imports us)
    from repro.graph.digraph import DiGraph


class CSRGraph:
    """An immutable CSR snapshot of a directed graph (forward + reverse)."""

    __slots__ = (
        "ids",
        "_index_of",
        "fwd_offsets",
        "fwd_targets",
        "_rev_offsets",
        "_rev_targets",
        "_successor_table",
        "_descending",
        "_level_plan",
        "_rev_level_plan",
    )

    def __init__(
        self,
        ids: Tuple[int, ...],
        index_of: Dict[int, int],
        fwd_offsets: array,
        fwd_targets: array,
    ) -> None:
        self.ids = ids
        self._index_of = index_of
        self.fwd_offsets = fwd_offsets
        self.fwd_targets = fwd_targets
        # The reverse arrays are derived lazily from the (immutable) forward
        # arrays on first use: most consumers only ever walk forward, and
        # skipping the reverse half halves snapshot build time.
        self._rev_offsets: Optional[array] = None
        self._rev_targets: Optional[array] = None
        self._successor_table: Dict[int, Tuple[int, ...]] = {}
        # Sweep-kernel caches, all derived lazily from the immutable forward
        # arrays: the verified numbering property (see edges_descend) and the
        # numpy sweeps' forward and reverse level plans (owned by
        # repro.reachability.kernels).
        self._descending: Optional[bool] = None
        self._level_plan: Optional[object] = None
        self._rev_level_plan: Optional[object] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_digraph(cls, graph: "DiGraph") -> "CSRGraph":
        """Build a snapshot from ``graph.vertices()`` and ``graph.successors(v)``
        in bulk (:func:`repro.reachability.kernels.np_adjacency_csr`)."""
        # Imported here: repro.reachability imports this module.
        from repro.reachability import kernels

        ids = tuple(sorted(graph.vertices()))
        return cls.from_sorted(
            ids, *kernels.np_adjacency_csr(ids, list(map(graph.successors, ids)))
        )

    @classmethod
    def from_edges(
        cls, vertices: Iterable[int], edges: Sequence[Tuple[int, int]]
    ) -> "CSRGraph":
        """Build a snapshot in bulk from vertex ids and ``(u, v)`` id pairs.

        Edge endpoints join the vertex set and duplicate edges collapse, so
        the result is byte-identical to :meth:`from_digraph` of the
        ``DiGraph`` those ``add_vertex`` / ``add_edge`` calls would build —
        without building it: every edge becomes one integer key
        ``u * n + v`` over the dense indices, and one sort of the key set
        yields every adjacency run de-duplicated and in order.
        """
        vertex_set = set(vertices)
        vertex_set.update([u for u, _ in edges])
        vertex_set.update([v for _, v in edges])
        ids = tuple(sorted(vertex_set))
        index_of = {vertex: i for i, vertex in enumerate(ids)}
        n = len(ids)
        # Sorted distinct keys are exactly the forward CSR order.
        keys = sorted({index_of[u] * n + index_of[v] for u, v in edges})
        fwd_offsets = array("q", [bisect_left(keys, u * n) for u in range(n + 1)])
        fwd_targets = array("q", [key % n for key in keys])
        return cls(ids, index_of, fwd_offsets, fwd_targets)

    @classmethod
    def from_sorted(
        cls, ids: Tuple[int, ...], fwd_offsets: array, fwd_targets: array
    ) -> "CSRGraph":
        """A snapshot over ascending ``ids`` and ready-made forward buffers.

        For constructions that emit the CSR buffers themselves (the numpy
        tier of a compound graph's assembly, every condensation); only the
        id → index dict is derived here.
        """
        return cls(ids, dict(zip(ids, range(len(ids)))), fwd_offsets, fwd_targets)

    def csr(self) -> "CSRGraph":
        """A snapshot is its own snapshot (the read API shared with ``DiGraph``)."""
        return self

    # ------------------------------------------------------------------ #
    # compact serialisation
    # ------------------------------------------------------------------ #
    #: Wire magic + version for :meth:`to_bytes` payloads.
    _WIRE_MAGIC = b"CSR1"

    def to_bytes(self) -> bytes:
        """Serialise the snapshot into one compact byte string.

        The format is three raw little-endian ``int64`` buffers (vertex ids,
        forward offsets, forward targets) behind a fixed 20-byte header —
        no pickling of boxed Python ints, so shipping a shard to a worker
        process costs one ``memcpy``-style copy per buffer.  The reverse
        arrays are never shipped: the receiver re-derives them lazily, same
        as a locally built snapshot.
        """
        ids = array("q", self.ids)
        header = struct.pack("<4sQQ", self._WIRE_MAGIC, len(self.ids), len(self.fwd_targets))
        return b"".join(
            (header, ids.tobytes(), self.fwd_offsets.tobytes(), self.fwd_targets.tobytes())
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "CSRGraph":
        """Rebuild a snapshot serialised by :meth:`to_bytes`.

        The reconstructed snapshot is byte-identical to the original for
        every forward buffer (the id order and adjacency runs are preserved
        verbatim), so ``from_bytes(g.to_bytes())`` is a faithful hydration
        of the shard ``g``.
        """
        header_size = struct.calcsize("<4sQQ")
        if len(payload) < header_size:
            raise ValueError("truncated CSR payload")
        magic, n, m = struct.unpack_from("<4sQQ", payload, 0)
        if magic != cls._WIRE_MAGIC:
            raise ValueError(f"not a CSR payload (bad magic {magic!r})")
        expected = header_size + 8 * (n + (n + 1) + m)
        if len(payload) != expected:
            raise ValueError(
                f"corrupt CSR payload: expected {expected} bytes, got {len(payload)}"
            )
        cursor = header_size
        ids_arr = array("q")
        ids_arr.frombytes(payload[cursor : cursor + 8 * n])
        cursor += 8 * n
        fwd_offsets = array("q")
        fwd_offsets.frombytes(payload[cursor : cursor + 8 * (n + 1)])
        cursor += 8 * (n + 1)
        fwd_targets = array("q")
        fwd_targets.frombytes(payload[cursor:])
        ids = tuple(ids_arr)
        index_of = {vertex: i for i, vertex in enumerate(ids)}
        return cls(ids, index_of, fwd_offsets, fwd_targets)

    def _ensure_reverse(self) -> None:
        """Materialise the reverse arrays (one sort of the forward edges by target)."""
        if self._rev_offsets is not None:
            return
        # Imported here: repro.reachability imports this module.
        from repro.reachability import kernels

        # Every reverse run lists its sources in ascending order, matching
        # the forward runs' determinism.
        self._rev_offsets, self._rev_targets = kernels.np_reverse_csr(self)

    @property
    def rev_offsets(self) -> array:
        self._ensure_reverse()
        return self._rev_offsets

    @property
    def rev_targets(self) -> array:
        self._ensure_reverse()
        return self._rev_targets

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.fwd_targets)

    def nbytes(self) -> int:
        """Footprint of the materialised ``array('q')`` buffers only.

        The optional id-space :meth:`successor_table` (boxed tuples, built
        only for the Pregel/Giraph consumers) is not counted here.
        """
        total = len(self.fwd_offsets) + len(self.fwd_targets)
        if self._rev_offsets is not None:
            total += len(self._rev_offsets) + len(self._rev_targets)
        return 8 * total

    # ------------------------------------------------------------------ #
    # id translation
    # ------------------------------------------------------------------ #
    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._index_of

    def index_of(self, vertex: int) -> int:
        """Dense index of ``vertex`` (raises ``KeyError`` if absent)."""
        return self._index_of[vertex]

    def vertex_at(self, index: int) -> int:
        """Original vertex id at dense index ``index``."""
        return self.ids[index]

    def vertices(self) -> Iterator[int]:
        """Iterate over all vertex ids, ascending."""
        return iter(self.ids)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all ``(u, v)`` edges as original ids."""
        ids, offsets, targets = self.ids, self.fwd_offsets, self.fwd_targets
        for i, vertex in enumerate(ids):
            for w in targets[offsets[i] : offsets[i + 1]]:
                yield (vertex, ids[w])

    # ------------------------------------------------------------------ #
    # adjacency
    # ------------------------------------------------------------------ #
    def out_neighbors(self, index: int) -> array:
        """Dense out-neighbour run of dense vertex ``index`` (do not mutate)."""
        return self.fwd_targets[self.fwd_offsets[index] : self.fwd_offsets[index + 1]]

    def in_neighbors(self, index: int) -> array:
        """Dense in-neighbour run of dense vertex ``index`` (do not mutate)."""
        return self.rev_targets[self.rev_offsets[index] : self.rev_offsets[index + 1]]

    def successors(self, vertex: int) -> Tuple[int, ...]:
        """Out-neighbours of ``vertex`` as original ids (empty if absent)."""
        i = self._index_of.get(vertex)
        if i is None:
            return ()
        ids = self.ids
        return tuple(ids[w] for w in self.out_neighbors(i))

    def successor_table(self) -> Dict[int, Tuple[int, ...]]:
        """``{vertex id: out-neighbour ids}``, built once per snapshot.

        For consumers that iterate adjacency in *original id* space per
        visited vertex (the Pregel/Giraph compute loops): repeated
        :meth:`successors` calls would re-translate and re-allocate a tuple
        each time, whereas this table pays the translation once and then
        serves cached tuples — at least as fast as iterating the mutable
        graph's live sets, and frozen with the snapshot.
        """
        if not self._successor_table and self.num_vertices:
            ids = self.ids
            offsets, targets = self.fwd_offsets, self.fwd_targets
            self._successor_table = {
                vertex: tuple(ids[w] for w in targets[offsets[i] : offsets[i + 1]])
                for i, vertex in enumerate(ids)
            }
        return self._successor_table

    def predecessors(self, vertex: int) -> Tuple[int, ...]:
        """In-neighbours of ``vertex`` as original ids (empty if absent)."""
        i = self._index_of.get(vertex)
        if i is None:
            return ()
        ids = self.ids
        return tuple(ids[w] for w in self.in_neighbors(i))

    def out_degree(self, index: int) -> int:
        return self.fwd_offsets[index + 1] - self.fwd_offsets[index]

    def in_degree(self, index: int) -> int:
        return self.rev_offsets[index + 1] - self.rev_offsets[index]

    def edges_descend(self) -> bool:
        """True iff every forward edge goes to a strictly lower dense index.

        Such a snapshot is a DAG whose descending index order is a
        topological order — the numbering :func:`repro.graph.scc.condense`
        gives every condensation — and it is the only kind the bitset
        kernels sweep (:mod:`repro.reachability.bitset_msbfs`): a forward
        sweep descends the indices, a reverse sweep ascends them, and either
        relaxes each edge once; any other snapshot is refused.  The property is
        *verified* against the adjacency, never taken on trust, once per
        snapshot: it is derived from the forward arrays alone, so a snapshot
        rebuilt by :meth:`from_bytes` recomputes the same answer and an
        immutable snapshot can never invalidate it.  The
        check is one vectorised comparison over the whole edge array
        (:func:`repro.reachability.kernels.np_edges_descend`).
        """
        if self._descending is None:
            # Imported here: repro.reachability imports this module.
            from repro.reachability import kernels

            self._descending = kernels.np_edges_descend(self)
        return self._descending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
