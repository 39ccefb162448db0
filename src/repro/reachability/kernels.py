"""The numpy kernels: bitset sweeps, batched row transforms, flush builders.

numpy is a requirement of the package, and this module is its one home.
The hot kernels of the packed pipeline — the multi-source frontier sweep
(:func:`repro.reachability.bitset_msbfs.propagate`), the packed-row harvest
(:func:`~repro.reachability.bitset_msbfs.set_reachability_rows`) and the
rank packing behind the per-SCC member masks
(:func:`repro.reachability.packed.pack_ranks`) — run here over a dense
``(num_vertices, words)`` uint64 matrix, each sweep **one pass over a level
plan**: the edges grouped by the level of their destination and pre-sorted
by it, so a level is one gather of the sources' rows, one
``np.bitwise_or.reduceat`` over the destination runs and one OR-assign —
each edge gathered once, each vertex written once, no ``np.unique``, no
``ufunc.at``.  A forward plan levels by height (longest path to a sink), a
reverse plan by depth (longest path from a source); each is built once per
snapshot and cached on it, and a sweep runs only the levels between its
seeds and the lowest level it is read at.  The harvest transposes the seen
matrix byte plane by byte plane (``np.packbits``) so a source's packed row
is built without per-bit Python work; a sweep seeded at the targets needs
no transpose, only its seeds' rows moved onto the targets' bits.

The batched row transforms of :mod:`repro.reachability.packed` (component
expansion and handle re-pack through ``BitGather``, group unpack, inbox
inversion) are here too (``np_gather_rows``, ``np_unpack_rows``,
``np_invert_rows``): each unpacks its batch of packed rows into one bit
matrix with ``np.unpackbits``, moves columns, and packs or decodes the
result.  ``BitGather.scatter`` (the target mask onto DAG components) is
one such pass over a single row (``np_scatter_row``).

A narrow call does not come here: below a measured crossover the python
loop in the calling module is cheaper than the fixed cost of a numpy call,
and it serves the call instead — a sweep seeded with fewer than
``bitset_msbfs.NUMPY_MIN_SEEDS`` bits, a row batch of fewer than
``packed.NUMPY_MIN_ROWS`` rows, a rank list shorter than
``packed._NUMPY_PACK_THRESHOLD``.  Each crossover reads the input size and
nothing else, and both sides return the same Python ints (same bytes), so
the choice never shows past the call.  The property tests in
``tests/proptest/`` hold both sides to
:func:`repro.graph.traversal.reachable_pairs`.

The maintenance flush is built here, once: a compound graph is assembled
from int64 array *pieces* — the local snapshot's edges (``np_csr_piece``),
every remote summary's memoised contribution and the cut
(``np_edges_piece``) — by one sort of the vertices for the ids, one dense
remap of the endpoints and one sort of edge keys (``np_union_csr``), a
condensation is numbered after a peel of its acyclic fringe (``np_peel``)
and its DAG is one sort of component-pair keys (``np_condense``).
Distinct values come from a sort and an adjacent difference, never
``np.unique``, whose first call maps a further ≈ 1.5 MiB of numpy code into
a process that otherwise never needs it.  Both return plain ``array('q')``
buffers, byte-identical to :meth:`repro.graph.csr.CSRGraph.from_edges` over
the same vertices and edges.

Every sweep runs over a topologically numbered snapshot
(:meth:`~repro.graph.csr.CSRGraph.edges_descend` — every condensation, see
:func:`repro.graph.scc.numbered_dag`) and relaxes each edge once; any other
snapshot is refused with ``ValueError`` (:func:`require_numbered`).

The kernels view uint64 word matrices as little-endian byte buffers, so
importing this module on a big-endian host raises ``ImportError``.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.obs.runtime import global_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.csr import CSRGraph

if sys.byteorder != "little":  # pragma: no cover - every supported host is little-endian
    # The kernels view uint64 word matrices as little-endian byte buffers
    # (``.view(uint8)`` + ``int.from_bytes(..., "little")``), an identity
    # only on a little-endian host.
    raise ImportError("repro's numpy kernels need a little-endian host")


def kernel_backend() -> str:
    """The kernel tier: always ``"numpy"`` (kept for benchmark fingerprints)."""
    return "numpy"


def _as_int64(buffer):
    """Zero-copy int64 view of an ``array('q')`` buffer."""
    if len(buffer) == 0:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(buffer, dtype=np.int64)


def _seed_matrix(csr: "CSRGraph", seed_bits: Dict[int, int]):
    """``(indices, bits_matrix, words)`` for the seeds of one sweep."""
    width = max((bits.bit_length() for bits in seed_bits.values()), default=0)
    words = max(1, (width + 63) >> 6)
    indices = np.fromiter(seed_bits, dtype=np.int64, count=len(seed_bits))
    rows = np.zeros((len(seed_bits), words), dtype=np.uint64)
    row_view = rows.view(np.uint8)
    for position, bits in enumerate(seed_bits.values()):
        if bits:
            chunk = bits.to_bytes(words * 8, "little")
            row_view[position, : len(chunk)] = np.frombuffer(chunk, dtype=np.uint8)
    return indices, rows, words


def np_edges_descend(csr: "CSRGraph") -> bool:
    """Vectorised check behind :meth:`repro.graph.csr.CSRGraph.edges_descend`."""
    offsets = _as_int64(csr.fwd_offsets)
    targets = _as_int64(csr.fwd_targets)
    sources = np.repeat(np.arange(csr.num_vertices, dtype=np.int64), np.diff(offsets))
    return bool((targets < sources).all())


def require_numbered(csr: "CSRGraph") -> None:
    """Refuse a snapshot the one-pass sweeps cannot serve, on either tier.

    A sweep relaxes each edge once in index order, which is only right when
    every edge goes to a strictly lower dense index
    (:meth:`~repro.graph.csr.CSRGraph.edges_descend`).  Condense anything
    else first: :func:`repro.graph.scc.numbered_dag`.
    """
    if not csr.edges_descend():
        raise ValueError(
            "bitset sweeps need a topologically numbered snapshot (every edge to a "
            "lower dense index); condense the graph first (repro.graph.scc.numbered_dag)"
        )


def count_sweep(tier: str) -> None:
    """Count one frontier sweep by the tier that served it."""
    registry = global_registry()
    if registry.enabled:
        registry.inc("dsr_kernel_sweeps_total", tier=tier)


def np_propagate_matrix(
    csr: "CSRGraph", seed_bits: Dict[int, int], reverse: bool = False, harvest=None
):
    """The ``(n, words)`` uint64 table of source bits reaching each vertex.

    With ``reverse=True`` the bits flow against the edges: a vertex carries
    the bits of every seed it *reaches*.  Either way one pass over the
    snapshot's level plan for that direction, which stops after the last
    level that writes one of the dense indices ``harvest`` (an int64 array;
    ``None``: every index); only those rows are final.
    """
    require_numbered(csr)
    if not seed_bits:
        return np.zeros((csr.num_vertices, 1), dtype=np.uint64)
    count_sweep("numpy")
    return _np_sweep_levels(csr, seed_bits, reverse, harvest)


def _level_plan(csr: "CSRGraph", reverse: bool = False):
    """The per-snapshot level plan of a topologically numbered snapshot.

    A forward plan levels the vertices by ``height[v]``, the longest path
    from ``v`` to a sink, so every edge goes from a strictly greater height
    to a lower one and the vertices of one height never feed each other.  A
    reverse plan does the same over the reverse adjacency, where every edge
    goes *up* in index, with ``depth[v]`` (the longest path from a source to
    ``v``) as the level.  The plan groups the edges by the level of their
    *destination*, highest first, and sorts each group by destination; a
    level is ``(edge sources, run starts, destinations)``: gathering the
    sources' rows, OR-reducing each destination's run and OR-assigning the
    result finishes every vertex of the level at once, from predecessors
    that are all final already.  Each vertex is written once and each edge
    gathered once per sweep.

    Built lazily on a snapshot's first numpy sweep in that direction and
    cached on it: 8 B per edge plus at most 24 B per vertex (14.6 B per edge
    and 2.5 ms to build on a 2140-vertex, 7546-edge condensation).
    """
    plan = csr._rev_level_plan if reverse else csr._level_plan
    if plan is None:
        n = csr.num_vertices
        if reverse:
            offsets, targets = csr.rev_offsets, csr.rev_targets
            # Reverse successors carry higher indices: a descending pass
            # sees them final.
            order = range(n - 1, -1, -1)
        else:
            offsets, targets = csr.fwd_offsets, csr.fwd_targets
            order = range(n)
        height = [0] * n
        for vertex in order:
            start, end = offsets[vertex], offsets[vertex + 1]
            if start != end:
                height[vertex] = 1 + max(map(height.__getitem__, targets[start:end]))
        heights = np.array(height, dtype=np.int64)
        levels = []
        if len(targets):
            dst = _as_int64(targets)
            src = np.repeat(np.arange(n, dtype=np.int64), np.diff(_as_int64(offsets)))
            order = np.lexsort((dst, -heights[dst]))
            src, dst = src[order], dst[order]
            # One run of equal destinations per written vertex; a change of
            # level is always a change of destination.
            starts = np.concatenate(([0], np.flatnonzero(np.diff(dst)) + 1))
            written = dst[starts]
            level_ends = [*(np.flatnonzero(np.diff(heights[written])) + 1).tolist(), written.size]
            edge_ends = [*starts.tolist(), dst.size]
            first = 0
            for last in level_ends:
                edge_first = edge_ends[first]
                levels.append((
                    src[edge_first : edge_ends[last]],
                    starts[first:last] - edge_first,
                    written[first:last],
                ))
                first = last
        plan = (heights, levels)
        if reverse:
            csr._rev_level_plan = plan
        else:
            csr._level_plan = plan
    return plan


def _np_sweep_levels(csr: "CSRGraph", seed_bits: Dict[int, int], reverse: bool, harvest):
    """One pass over the level plan: every edge gathered at most once."""
    seed_idx, seed_rows, words = _seed_matrix(csr, seed_bits)
    seen = np.zeros((csr.num_vertices, words), dtype=np.uint64)
    seen[seed_idx] = seed_rows
    reduceat = np.bitwise_or.reduceat
    heights, levels = _level_plan(csr, reverse)
    # Level i writes the vertices of height top - 1 - i: a seed only
    # reaches lower heights, and no level below the lowest harvest height
    # writes a row the caller reads.
    top = len(levels)
    low = 0 if harvest is None else int(heights[harvest].min())
    for sources, runs, written in levels[top - int(heights[seed_idx].max()) : top - low]:
        seen[written] |= reduceat(seen[sources], runs, axis=0)
    return seen


def np_propagate(csr: "CSRGraph", seed_bits: Dict[int, int], reverse: bool = False) -> List[int]:
    """The wide side of :func:`repro.reachability.bitset_msbfs.propagate`."""
    seen = np_propagate_matrix(csr, seed_bits, reverse=reverse)
    row_bytes = seen.view(np.uint8)
    return [
        int.from_bytes(row_bytes[i].tobytes(), "little") for i in range(seen.shape[0])
    ]


#: The single-bit masks of a byte, lowest first.
_BYTE_BITS = tuple(1 << bit for bit in range(8))


def _np_bit_indices(row: int):
    """The set bit positions of a non-negative ``row``, ascending, as an int64 array."""
    data = np.frombuffer(row.to_bytes((row.bit_length() + 7) >> 3, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(data, bitorder="little"))


def np_sweep_rows(
    csr: "CSRGraph", batch: List[int], harvest: Optional[int], reverse: bool, transpose: bool
) -> List[int]:
    """The wide side of ``bitset_msbfs._sweep_rows`` (byte-identical rows).

    With ``transpose`` the seen matrix is transposed with eight
    ``np.packbits`` passes over its byte planes (bit order ``little``,
    matching the row encoding), so every batch index's packed row
    materialises vectorised instead of in a per-(target, seed-bit) Python
    loop.  Without, the harvest rows' bits are unpacked and ORed into the
    bytes of the batch's indices.
    """
    indices = None if harvest is None else _np_bit_indices(harvest)
    seen = np_propagate_matrix(
        csr, {index: 1 << j for j, index in enumerate(batch)}, reverse, indices
    )
    if transpose:
        # Plane j holds seed bits 8j..8j+7 of every vertex, and packing its
        # bit b along the vertex axis (packbits packs "non-zero") is the row
        # of seed 8j + b.
        planes = np.ascontiguousarray(seen.view(np.uint8)[:, : (len(batch) + 7) >> 3].T)
        packed = np.stack(
            [np.packbits(planes & bit, axis=1, bitorder="little") for bit in _BYTE_BITS],
            axis=1,
        )
        count, mask = len(batch), -1 if harvest is None else harvest
    else:
        bits = np.unpackbits(
            seen[indices].view(np.uint8), axis=1, count=len(batch), bitorder="little"
        )
        # Bit j moves to bit batch[j] & 7 of byte batch[j] >> 3; the batch
        # ascends, so each output byte ORs one run of columns.
        columns = np.asarray(batch, dtype=np.int64)
        byte_of = columns >> 3
        runs = np.flatnonzero(np.diff(byte_of, prepend=-1))
        packed = np.zeros((indices.size, int(byte_of[-1]) + 1), dtype=np.uint8)
        packed[:, byte_of[runs]] = np.bitwise_or.reduceat(
            bits << (columns & 7).astype(np.uint8), runs, axis=1
        )
        count, mask = indices.size, -1
    raw, stride = packed.tobytes(), packed.shape[-1]
    return [
        mask & int.from_bytes(raw[p * stride : (p + 1) * stride], "little") for p in range(count)
    ]


def np_objects(values: Sequence[int]):
    """``values`` as an object array: gathering from it and ``tolist()``
    hand back the very int objects, where an int64 array would box a new
    int per element (a vertex-id table for :func:`np_unpack_rows`)."""
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def np_gather_plan(index: Sequence[int]):
    """The numpy form of a ``BitGather`` index: ``(columns, input bytes)``."""
    columns = np.asarray(index, dtype=np.intp)
    return columns, (int(columns.max()) >> 3) + 1


def _byte_matrix(rows: Sequence[int], nbytes: int):
    """The rows as one ``(len(rows), nbytes)`` little-endian byte matrix."""
    data = b"".join(row.to_bytes(nbytes, "little") for row in rows)
    return np.frombuffer(data, dtype=np.uint8).reshape(len(rows), nbytes)


def _bit_matrix(rows: Sequence[int], nbytes: int):
    """The rows as one ``(len(rows), 8 * nbytes)`` 0/1 matrix, bit ``j`` in column ``j``."""
    return np.unpackbits(_byte_matrix(rows, nbytes), axis=1, bitorder="little")


def _row_bytes(rows: Sequence[int]) -> int:
    """The byte width of the widest row."""
    return (max((row.bit_length() for row in rows), default=0) + 7) >> 3


def _set_bits(rows: Sequence[int]):
    """``(row, position)`` of every set bit of the batch, by row, then position.

    Only the nonzero bytes are unpacked, so a sparse batch costs its set
    bits, not its width.
    """
    matrix = _byte_matrix(rows, _row_bytes(rows))
    row_of, byte_of = np.nonzero(matrix)
    bits = np.unpackbits(matrix[row_of, byte_of][:, None], axis=1, bitorder="little")
    which, bit = np.nonzero(bits)
    return row_of[which], byte_of[which] * 8 + bit


def np_gather_rows(rows: Sequence[int], plan) -> List[int]:
    """``BitGather.gather`` of a wide batch: unpack, gather columns, pack."""
    columns, nbytes = plan
    bits = _bit_matrix(rows, max(nbytes, _row_bytes(rows)))
    packed = np.packbits(bits[:, columns], axis=1, bitorder="little")
    raw, stride = packed.tobytes(), packed.shape[1]
    return [
        int.from_bytes(raw[start : start + stride], "little")
        for start in range(0, len(raw), stride)
    ]


def np_unpack_rows(rows: Sequence[int], ids) -> List[List[int]]:
    """``VertexRank.unpack_rows`` of a wide batch: one pass over the set bits."""
    row_of, positions = _set_bits(rows)
    values = ids[positions].tolist()
    out: List[List[int]] = []
    start = 0
    for end in np.cumsum(np.bincount(row_of, minlength=len(rows))).tolist():
        out.append(values[start:end])
        start = end
    return out


def np_invert_rows(
    rows: Sequence[int], members: Sequence[Sequence[int]], labels: Sequence[int]
) -> Dict[int, List[int]]:
    """``packed.invert_rows`` of a wide batch: repeat, transpose, ``nonzero``.

    Each row's bits are repeated once per member, so ``nonzero`` of the
    transposed matrix lists the (position, member) pairs by position and,
    within one, in member order — the python loop's output order.
    """
    nbytes = _row_bytes(rows)
    if not nbytes:
        return {}
    bits = _bit_matrix(rows, nbytes)
    counts = np.fromiter(map(len, members), dtype=np.intp, count=len(members))
    positions, member_of = np.nonzero(np.repeat(bits, counts, axis=0).T)
    values = np_objects(list(chain.from_iterable(members)))[member_of].tolist()
    # Every position some row sets is a key, even one whose rows have no
    # members.
    keys = np.flatnonzero(bits.any(axis=0))
    sizes = np.bincount(positions, minlength=bits.shape[1])[keys]
    inverted: Dict[int, List[int]] = {}
    start = 0
    for position, size in zip(keys.tolist(), sizes.tolist()):
        inverted[labels[position]] = values[start : start + size]
        start += size
    return inverted


def _first_of_runs(ordered):
    """Mask of the entries of a sorted array that differ from their predecessor."""
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _sorted_distinct(values):
    """``values`` sorted, duplicates dropped: one sort, one adjacent difference."""
    ordered = np.sort(values)
    return ordered[_first_of_runs(ordered)]


#: A lookup table serves :func:`_dense_index` while the id span is at most
#: this many times the ids plus values it maps; past that, binary search.
_TABLE_SPAN_FACTOR = 4


def _dense_index(ids, values):
    """Each of ``values``' index in the sorted distinct ``ids``.

    One gather from a table over the id span, whose slots hold each id's
    index and ``-1`` elsewhere: class ids and real ids share one bounded
    span (:func:`repro.core.equivalence.class_id`).  A span much wider than
    the input (arbitrary ids) takes one binary search per value
    (``np.searchsorted``) instead.  ``ValueError`` when a value is not one
    of the ids.
    """
    if not values.size:
        return values
    if not ids.size or values.min() < ids[0] or values.max() > ids[-1]:
        raise ValueError("an edge endpoint is not a vertex of any piece")
    low = int(ids[0])
    span = int(ids[-1]) - low + 1
    if span <= _TABLE_SPAN_FACTOR * (ids.size + values.size):
        table = np.full(span, -1, dtype=np.int64)
        table[ids - low] = np.arange(ids.size, dtype=np.int64)
        dense = table[values - low]
        if dense.min() < 0:
            raise ValueError("an edge endpoint is not a vertex of any piece")
        return dense
    dense = np.searchsorted(ids, values)
    if not np.array_equal(ids[dense], values):
        raise ValueError("an edge endpoint is not a vertex of any piece")
    return dense


def _as_array(values) -> array:
    """An int64 numpy array copied straight into an ``array('q')``."""
    out = array("q")
    out.frombytes(memoryview(values).cast("B"))
    return out


def _csr_buffers(keys, n: int) -> Tuple[array, array]:
    """``(offsets, targets)`` of sorted distinct edge keys ``u * n + v``."""
    sources, targets = np.divmod(keys, max(n, 1))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=offsets[1:])
    return _as_array(offsets), _as_array(targets)


def np_adjacency_csr(ids: Sequence[int], successors: Sequence[Iterable[int]]):
    """``(offsets, targets)`` of the successor sets ``successors[i]`` of the
    sorted distinct ``ids[i]``: one read into an int64 array, one dense
    remap (:func:`_dense_index`) and one sort of the keys ``u * n + v``."""
    n = len(ids)
    sizes = np.fromiter(map(len, successors), dtype=np.int64, count=n)
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, sizes)
    heads = np.fromiter(chain.from_iterable(successors), dtype=np.int64, count=keys.size)
    keys += _dense_index(np.fromiter(ids, dtype=np.int64, count=n), heads)
    return _csr_buffers(np.sort(keys), n)


def np_edges_piece(vertices: Sequence[int], edges: Sequence[Tuple[int, int]]):
    """A graph piece ``(vertex objects, vertices, sources, targets)``.

    The vertices as the given Python ints and as an int64 array, the edges
    as two int64 arrays of endpoint ids.
    """
    vertices = tuple(vertices)
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    return (
        vertices,
        np.fromiter(vertices, dtype=np.int64, count=len(vertices)),
        flat[0::2].copy(),
        flat[1::2].copy(),
    )


def np_csr_piece(csr: "CSRGraph"):
    """A snapshot as a graph piece, read off its CSR buffers."""
    ids = np.fromiter(csr.ids, dtype=np.int64, count=csr.num_vertices)
    sources = np.repeat(ids, np.diff(_as_int64(csr.fwd_offsets)))
    return csr.ids, ids, sources, ids[_as_int64(csr.fwd_targets)]


def np_union_csr(pieces) -> Tuple[Tuple[int, ...], array, array]:
    """``(ids, offsets, targets)`` of the graph the pieces make together.

    Byte for byte what :meth:`repro.graph.csr.CSRGraph.from_edges` builds
    from the same vertices and edges, for pieces whose every edge endpoint is a vertex of some piece
    (``ValueError`` otherwise): the ids are the sorted distinct vertices,
    the endpoints are remapped onto their dense indices
    (:func:`_dense_index`), and the sorted distinct keys ``u * n + v`` are
    the forward CSR order.  The ids are the pieces' own Python ints, not
    new ones: a compound graph's ids then share the objects of the local
    graph and the summaries instead of boxing thousands of fresh ints per flush whose turnover fragments the heap.
    """
    object_parts, vertex_parts, source_parts, target_parts = zip(*pieces)
    vertices = np.concatenate(vertex_parts)
    order = np.argsort(vertices)
    ordered = vertices[order]
    first = _first_of_runs(ordered)
    ids = ordered[first]
    n = ids.size
    dense = _dense_index(ids, np.concatenate((*source_parts, *target_parts)))
    m = dense.size // 2
    keys = dense[:m] * n
    keys += dense[m:]
    id_objects = np_objects(list(chain.from_iterable(object_parts)))[order[first]]
    return (tuple(id_objects.tolist()), *_csr_buffers(_sorted_distinct(keys), n))


def np_peel(csr: "CSRGraph", min_share: float):
    """Trim ``csr``'s acyclic fringe: ``(sinks, sources, core, core_csr)`` or ``None``.

    Each round peels every live vertex without a live out-edge (a sink) or
    in-edge (a source; with neither, a sink) in a few whole-array passes;
    a self-loop counts as no edge.  ``sinks`` and ``sources`` are dense
    indices in peel order, ``core`` the ascending rest, ``core_csr`` the
    CSR buffers of the core's own edges.  ``None`` when the degree arrays
    say the first round would peel nothing or under ``min_share`` of ``n``.
    """
    n = csr.num_vertices
    heads = _as_int64(csr.fwd_targets)
    out_degree = np.diff(_as_int64(csr.fwd_offsets))
    in_degree = np.bincount(heads, minlength=n)
    if np.count_nonzero((out_degree == 0) | (in_degree == 0)) < max(min_share * n, 1):
        return None
    tails = np.repeat(np.arange(n, dtype=np.int64), out_degree)
    loops = tails == heads
    if loops.any():
        out_degree -= np.bincount(tails[loops], minlength=n)
        in_degree -= np.bincount(tails[loops], minlength=n)
        tails, heads = tails[~loops], heads[~loops]
    live = np.ones(n, dtype=bool)
    sink, source = out_degree == 0, in_degree == 0
    sinks, sources = [], []
    while True:
        source &= ~sink
        peeled = sink | source
        if not peeled.any():
            break
        sinks.append(np.flatnonzero(sink))
        sources.append(np.flatnonzero(source))
        live &= ~peeled
        dying = peeled[tails] | peeled[heads]
        out_degree -= np.bincount(tails[dying], minlength=n)
        in_degree -= np.bincount(heads[dying], minlength=n)
        tails, heads = tails[~dying], heads[~dying]
        sink, source = live & (out_degree == 0), live & (in_degree == 0)
    core_csr = _csr_buffers(tails * n + heads, n)
    return np.concatenate(sinks), np.concatenate(sources), np.flatnonzero(live).tolist(), core_csr


def np_component_of(components: Sequence[Sequence[int]], n: int, sinks=(), sources=()):
    """``(component_of, k)`` for ``n`` dense indices: the ``sinks`` number
    ``0, 1, …``, the SCCs ``components`` (dense-index lists) follow, and the
    ``sources`` take ``k - 1, k - 2, …``."""
    k = len(sinks) + len(components) + len(sources)
    members = np.fromiter(chain.from_iterable(components), dtype=np.int64)
    sizes = np.fromiter(map(len, components), dtype=np.int64, count=len(components))
    component_of = np.empty(n, dtype=np.int64)
    component_of[np.asarray(sinks, dtype=np.int64)] = np.arange(len(sinks))
    component_of[members] = np.repeat(np.arange(len(sinks), k - len(sources)), sizes)
    component_of[np.asarray(sources, dtype=np.int64)] = k - 1 - np.arange(len(sources))
    return component_of, k


def np_component_members(index: Sequence[int], k: int):
    """``(lowest member of each component, [(component, members), …])`` for
    ``index[r]``, rank ``r``'s component among ``k`` that each have one: one
    stable sort; only components of several members are listed."""
    index = np.asarray(index, dtype=np.int64)
    order = np.argsort(index, kind="stable")
    sizes = np.bincount(index, minlength=k)
    starts = np.cumsum(sizes) - sizes
    shared = np.flatnonzero(sizes > 1).tolist()
    groups = [(c, order[starts[c] : starts[c] + sizes[c]].tolist()) for c in shared]
    return order[starts].tolist(), groups


def np_condense(csr: "CSRGraph", component_of, k: int) -> Tuple[array, array]:
    """``(offsets, targets)`` of ``csr``'s condensation under ``component_of``.

    The DAG emission of :func:`repro.graph.scc.condense_dense`:
    ``component_of`` (an int64 array, see :func:`np_component_of`) maps
    every dense index to one of ``k`` components, and the DAG's CSR is the
    sorted distinct component pairs of every edge between two components.
    """
    sources = np.repeat(component_of, np.diff(_as_int64(csr.fwd_offsets)))
    targets = component_of[_as_int64(csr.fwd_targets)]
    between = sources != targets
    return _csr_buffers(_sorted_distinct(sources[between] * k + targets[between]), k)


def np_reverse_csr(csr: "CSRGraph") -> Tuple[array, array]:
    """``(offsets, targets)`` of the reverse adjacency, each run ascending.

    One sort of the distinct keys ``target * n + source`` lists the edges by
    target, then source: the order
    :meth:`repro.graph.csr.CSRGraph.rev_targets` promises.
    """
    n = csr.num_vertices
    targets = _as_int64(csr.fwd_targets)
    keys = targets * n
    keys += np.repeat(np.arange(n, dtype=np.int64), np.diff(_as_int64(csr.fwd_offsets)))
    keys.sort()
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n), out=offsets[1:])
    return _as_array(offsets), _as_array(keys % max(n, 1))


def _missing_from(keys, reference):
    """The entries of ``keys`` that the sorted ``reference`` lacks."""
    if not reference.size:
        return keys
    slots = np.minimum(np.searchsorted(reference, keys), reference.size - 1)
    return keys[reference[slots] != keys]


def np_edge_delta(old, new) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """``(inserted, deleted)``: the edges only ``new`` has, and only ``old`` has.

    ``old`` and ``new`` are ``(sources, targets)`` int64 arrays of endpoint
    ids (any sign); each edge becomes one key over the joint id span, so
    the difference is two sorts and two binary searches.
    """
    ends = np.concatenate((*old, *new))
    if not ends.size:
        return [], []
    low = int(ends.min())
    width = int(ends.max()) - low + 1
    if width > 3_037_000_499:  # width ** 2 would overflow int64
        old_set = set(zip(old[0].tolist(), old[1].tolist()))
        new_set = set(zip(new[0].tolist(), new[1].tolist()))
        return sorted(new_set - old_set), sorted(old_set - new_set)
    old_keys = np.sort((old[0] - low) * width + (old[1] - low))
    new_keys = np.sort((new[0] - low) * width + (new[1] - low))

    def pairs(keys):
        sources, targets = np.divmod(keys, width)
        return list(zip((sources + low).tolist(), (targets + low).tolist()))

    return pairs(_missing_from(new_keys, old_keys)), pairs(_missing_from(old_keys, new_keys))


def np_pack_ranks(ranks) -> int:
    """The long side of :func:`repro.reachability.packed.pack_ranks`: the
    ranks (any order, repeats allowed) set in one bool vector, packed once."""
    ranks = np.asarray(ranks, dtype=np.intp)
    if not ranks.size:
        return 0
    bits = np.zeros(int(ranks.max()) + 1, dtype=bool)
    bits[ranks] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def np_scatter_row(row: int, plan) -> int:
    """``BitGather.scatter``: the ranks ``columns[j]`` of the row's set bits
    ``j``, read in one ``np.unpackbits``, packed once (:func:`np_pack_ranks`)."""
    columns, _ = plan
    data = np.frombuffer(row.to_bytes((columns.size + 7) >> 3, "little"), dtype=np.uint8)
    bits = np.unpackbits(data, count=columns.size, bitorder="little")
    return np_pack_ranks(columns[bits.view(bool)])


__all__ = [
    "count_sweep",
    "kernel_backend",
    "np_adjacency_csr",
    "np_component_members",
    "np_component_of",
    "np_condense",
    "np_csr_piece",
    "np_edge_delta",
    "np_edges_descend",
    "np_edges_piece",
    "np_gather_plan",
    "np_gather_rows",
    "np_invert_rows",
    "np_objects",
    "np_pack_ranks",
    "np_peel",
    "np_propagate",
    "np_propagate_matrix",
    "np_reverse_csr",
    "np_scatter_row",
    "np_sweep_rows",
    "np_union_csr",
    "np_unpack_rows",
    "require_numbered",
]
