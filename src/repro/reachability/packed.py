"""Packed bitset rows over a stable vertex-rank numbering.

This module defines the *currency* of the bitset-native query pipeline: a
**packed row** is one arbitrary-width Python ``int`` whose bit ``r`` means
"the vertex at rank ``r`` is in this set".  Ranks come from a
:class:`VertexRank` — a stable bijection between vertex ids and bit
positions, frozen per epoch (it is derived from the deterministic id order
of a :class:`~repro.graph.csr.CSRGraph` snapshot, so two structurally equal
graphs always agree on every rank).

Rows replace Python ``Set[int]`` materialisation on the query hot path:
intersecting a reached row against a precomputed target mask is one big-int
``AND`` instead of a per-element hash probe, and expanding an SCC component
to its members is one ``OR`` against a precomputed member mask instead of a
per-vertex loop.  Rows also serialise to compact little-endian byte strings
(:func:`row_to_bytes` / :func:`row_from_bytes`) so cross-partition messages
and process-worker payloads can carry them directly on the wire.

A query step moves whole *batches* of rows between numberings — component
rows to member rows, vertex rows to a partition's handle positions, rows to
vertex-id lists, handle rows to per-handle source lists.  Each of those is
one batched call here (:class:`BitGather`, :meth:`VertexRank.unpack_rows`,
:func:`invert_rows`) with two tiers: the per-bit python loop and the numpy
kernels (:mod:`repro.reachability.kernels`), which unpack the batch into
one bit matrix, move columns and pack it back.  The outputs are identical;
a call picks its tier from its row count alone (:data:`NUMPY_MIN_ROWS`),
and :func:`pack_ranks` from its rank count (``_NUMPY_PACK_THRESHOLD``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.csr import CSRGraph

from repro.reachability import kernels as _kernels

#: Rank count from which the numpy ``pack_ranks`` is worth its call
#: overhead; shorter member lists stay on the byte-buffer loop.
_NUMPY_PACK_THRESHOLD = 64

#: Row count from which the numpy kernels serve a batched row call
#: (:meth:`BitGather.gather`, :meth:`VertexRank.unpack_rows`,
#: :func:`invert_rows`); smaller batches run the per-bit python loop.  The
#: python loop costs a step per set bit, the numpy tier a fixed call plus
#: one pass over rows x width.  Measured per call, python / numpy ms (best
#: of 15; x86_64, 2 cores, Python 3.11, numpy 2.4) on batches drawn from the
#: calls of 128x128 queries on the spine's ``dag(2000, 8000)`` rig, 2
#: partitions (2140-vertex condensations, ~90 set bits per row):
#: component expansion 0.038/0.044 at 4 rows, 0.084/0.060 at 8,
#: 0.177/0.098 at 16, 0.563/0.311 at 64; handle inversion 0.046/0.043 at 4,
#: 0.077/0.053 at 8, 0.165/0.088 at 16, 0.575/0.241 at 64; handle re-pack
#: 0.057/0.016 at 4, 0.262/0.038 at 16; group unpack 0.026/0.015 at 4,
#: 0.106/0.040 at 16.  From 16 rows every kind of call is at least 1.8x
#: faster on numpy; at 8 the expansion and the inversion gain 1.4x.  A
#: query with 8 sources and 8 targets never puts more than 8 rows into one
#: call, so the narrow path always runs the python loop.
NUMPY_MIN_ROWS = 16

#: Bit positions set in each byte value — the decode loop walks bytes, not
#: bigint lowest-set-bit chains, so scanning an n-bit row costs O(n/8 + k)
#: byte-table lookups instead of O(k) arbitrary-width int operations.
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(i for i in range(8) if value >> i & 1) for value in range(256)
)


def iter_bits(row: int) -> Iterator[int]:
    """Yield the set bit positions of ``row`` in ascending order."""
    if not row:
        return
    offset = 0
    byte_bits = _BYTE_BITS
    for byte in row.to_bytes((row.bit_length() + 7) // 8, "little"):
        if byte:
            for i in byte_bits[byte]:
                yield offset + i
        offset += 8


def _popcount(row: int) -> int:
    """Number of set bits in ``row``."""
    return bin(row).count("1")


#: Number of set bits in a row: ``int.bit_count`` where the interpreter has
#: it (3.10+; 0.09 against 1.9 µs on a 1000-bit row), else a string count.
popcount = getattr(int, "bit_count", _popcount)


def _numpy_serves(num_rows: int) -> bool:
    """Tier choice for one batched call, by its row count alone."""
    return num_rows >= NUMPY_MIN_ROWS


def wire_order(handles: Iterable[int]) -> List[int]:
    """A partition's handles in wire-position order.

    Real vertices first, ascending, then class vertices by representative:
    a class id is ``-1 - 2·representative`` (one less for a backward class,
    :func:`repro.core.equivalence.class_id`), so ascending ``-id`` orders
    the classes by representative.  Handle positions, and so the packed
    handle messages' bytes, are the ones an id order with the class ids
    above the real ids gave.
    """
    return sorted(handles, key=lambda handle: (handle < 0, abs(handle)))


def handle_gather(handles: Iterable[int], rank: "VertexRank") -> "BitGather":
    """Rows over ``rank`` → rows over the handles' canonical wire positions.

    Position ``p`` is the ``p``-th handle in :func:`wire_order`.  This is
    the single definition of how packed handle messages number a
    partition's forward handles: the sender's compound graph and the
    hydrated worker shard re-pack through it, and the receiving summary
    reads the same order (``PartitionSummary.forward_handle_order``), so
    the views of the wire can never disagree.  Every handle must be a
    vertex of ``rank``.
    """
    rank_of = rank.rank_of
    return BitGather(tuple(rank_of[handle] for handle in wire_order(handles)))


def pack_ranks(ranks: Sequence[int]) -> int:
    """Pack ascending bit positions into a row via one ``int.from_bytes``.

    Setting bits in a byte buffer and converting once is O(k + width/8);
    the naive ``row |= 1 << r`` loop reallocates the growing bigint per
    member — O(k·width/64) — which bites on large SCCs / dense rows.
    """
    if not ranks:
        return 0
    if len(ranks) >= _NUMPY_PACK_THRESHOLD:
        return _kernels.np_pack_ranks(ranks)
    buffer = bytearray((ranks[-1] >> 3) + 1)
    for r in ranks:
        buffer[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buffer, "little")


def row_to_bytes(row: int) -> bytes:
    """Serialise a packed row into a minimal little-endian byte string."""
    return row.to_bytes((row.bit_length() + 7) // 8, "little")


def row_from_bytes(data: bytes) -> int:
    """Inverse of :func:`row_to_bytes`."""
    return int.from_bytes(data, "little")


class BitGather:
    """One batched row transform: output bit ``j`` of a row is input bit ``index[j]``.

    ``index`` is fixed per numbering pair (component rank of each vertex
    rank, vertex rank of each handle position) and the transform is built
    once per condensation or worker shard, so every query of the epoch
    reuses it.  A row may only set input bits some output reads (the
    callers' rows are component rows, or hits already masked to the
    handles).

    * fewer than :data:`NUMPY_MIN_ROWS` rows, the python loop — per row,
      OR the output bits each set input bit feeds (``fanout[i]``; a
      component's member mask for the expansion), one OR per set bit;
    * a wider batch, the numpy kernels — stack the rows as bytes, unpack
      the batch into one bit matrix, gather its columns through ``index``
      and pack it back (:func:`repro.reachability.kernels.np_gather_rows`).

    :meth:`scatter` runs the map the other way on one row (output bit
    ``index[j]`` is the OR of every input bit ``j`` that maps there): the
    target-mask translation onto DAG components.
    """

    __slots__ = ("index", "_fanout", "_np_index")

    def __init__(self, index: Sequence[int], fanout: Optional[Sequence[int]] = None) -> None:
        self.index: Tuple[int, ...] = tuple(index)
        self._fanout = fanout
        self._np_index = None

    @property
    def fanout(self) -> Sequence[int]:
        """``fanout[i]``: the output bits input bit ``i`` feeds, as one row."""
        if self._fanout is None:
            fanout: Dict[int, int] = {}
            for j, i in enumerate(self.index):
                fanout[i] = fanout.get(i, 0) | 1 << j
            self._fanout = fanout
        return self._fanout

    def gather(self, rows: Sequence[int]) -> List[int]:
        """The transformed rows, one per input row, in input order."""
        if not self.index:
            return [0] * len(rows)
        if _numpy_serves(len(rows)):
            if self._np_index is None:
                self._np_index = _kernels.np_gather_plan(self.index)
            return _kernels.np_gather_rows(rows, self._np_index)
        fanout = self._fanout if self._fanout is not None else self.fanout
        out = []
        for row in rows:
            value = 0
            for i in iter_bits(row):
                value |= fanout[i]
            out.append(value)
        return out

    def scatter(self, row: int) -> int:
        """One row the other way: output bit ``index[j]`` ORs input bit ``j``.

        A row of ``_NUMPY_PACK_THRESHOLD`` set bits or more is packed once,
        in one numpy pass (:func:`repro.reachability.kernels.np_scatter_row`),
        instead of growing one ``|= 1 << bit`` at a time; a sparser row
        takes the per-bit loop, which is cheaper below that count.
        """
        if not row:
            return 0
        if popcount(row) < _NUMPY_PACK_THRESHOLD:
            index = self.index
            value = 0
            for j in iter_bits(row):
                value |= 1 << index[j]
            return value
        if self._np_index is None:
            self._np_index = _kernels.np_gather_plan(self.index)
        return _kernels.np_scatter_row(row, self._np_index)


def invert_rows(
    rows: Sequence[int], members: Sequence[Sequence[int]], labels: Sequence[int]
) -> Dict[int, List[int]]:
    """Transpose a batch: ``{labels[p]: members of every row with bit p}``.

    ``members[i]`` belongs to ``rows[i]``; each output list concatenates
    the members of the rows that set bit ``p``, in row order, and the keys
    come in ascending ``p``.  The python loop walks every (row, bit) pair;
    a batch of :data:`NUMPY_MIN_ROWS` rows or more transposes the batch's bit matrix and gathers the member
    segments in one pass (:func:`repro.reachability.kernels.np_invert_rows`).
    """
    if _numpy_serves(len(rows)):
        return _kernels.np_invert_rows(rows, members, labels)
    by_position: Dict[int, List[int]] = {}
    for row, row_members in zip(rows, members):
        for position in iter_bits(row):
            by_position.setdefault(position, []).extend(row_members)
    return {labels[p]: by_position[p] for p in sorted(by_position)}


class VertexRank:
    """A stable vertex-id ↔ bit-position bijection.

    ``ids[r]`` is the vertex at rank ``r`` and ``rank_of[v]`` the rank of
    vertex ``v``.  Instances are immutable by contract; one is derived per
    epoch from each compound graph's CSR snapshot (whose id order is
    deterministic), so every slave — in-process or a hydrated worker
    process — numbers the same vertices identically.
    """

    __slots__ = ("ids", "rank_of", "_np_ids")

    def __init__(self, ids: Sequence[int]) -> None:
        self.ids: Tuple[int, ...] = tuple(ids)
        self.rank_of: Dict[int, int] = {vertex: r for r, vertex in enumerate(self.ids)}
        self._np_ids = None

    @classmethod
    def from_csr(cls, csr: "CSRGraph") -> "VertexRank":
        """The rank numbering of a CSR snapshot (its dense index order)."""
        rank = cls.__new__(cls)
        rank.ids = csr.ids
        # Share the snapshot's own id->index dict: identical mapping, and the
        # identity lets native kernels skip any rank translation.
        rank.rank_of = csr._index_of
        rank._np_ids = None
        return rank

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.rank_of

    def pack(self, vertices: Iterable[int]) -> int:
        """Pack vertex ids into a row (ids unknown to this rank are skipped).

        ``_NUMPY_PACK_THRESHOLD`` ranks or more are packed once
        (:func:`repro.reachability.kernels.np_pack_ranks`); fewer take the
        per-bit loop, which is cheaper below that count.
        """
        rank_of = self.rank_of
        ranks = [rank_of[vertex] for vertex in vertices if vertex in rank_of]
        if len(ranks) >= _NUMPY_PACK_THRESHOLD:
            return _kernels.np_pack_ranks(ranks)
        row = 0
        for r in ranks:
            row |= 1 << r
        return row

    def unpack(self, row: int) -> List[int]:
        """The vertex ids of a row, in ascending rank order."""
        ids = self.ids
        return [ids[r] for r in iter_bits(row)]

    def unpack_rows(self, rows: Sequence[int]) -> List[List[int]]:
        """:meth:`unpack` over a batch: one id list per row, in row order."""
        if _numpy_serves(len(rows)):
            if self._np_ids is None:
                self._np_ids = _kernels.np_objects(self.ids)
            return _kernels.np_unpack_rows(rows, self._np_ids)
        return [self.unpack(row) for row in rows]

    def full_mask(self) -> int:
        """The row with every vertex of this rank set."""
        return (1 << len(self.ids)) - 1


__all__ = [
    "NUMPY_MIN_ROWS",
    "BitGather",
    "VertexRank",
    "handle_gather",
    "invert_rows",
    "iter_bits",
    "pack_ranks",
    "popcount",
    "row_from_bytes",
    "row_to_bytes",
    "wire_order",
]
