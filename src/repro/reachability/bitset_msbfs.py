"""Bitset multi-source sweep kernel over CSR snapshots.

This is the batched traversal kernel behind every ``localSetReachability(.)``
hot path: instead of running ``W`` separate traversals for a ``W``-source
set-reachability query, one sweep propagates a *W-wide frontier* — every dense
vertex carries one arbitrary-width Python ``int`` whose bit ``p`` means
"source number ``p`` reaches this vertex" — so an edge is relaxed for the
whole batch at once instead of once per source (the memoisation the paper
observes for large query sets, Fig. 7; cf. Then et al. [30]).

Every sweep is **one pass** over a topologically numbered DAG —
:meth:`~repro.graph.csr.CSRGraph.edges_descend`: every edge goes to a
strictly lower dense index, which :func:`repro.graph.scc.condense`
guarantees for every condensation.  A forward sweep descends from the
highest seed and ORs each reached vertex's bits into its successors; a
reverse sweep (``reverse=True``: bits flow against the edges) ascends from
the lowest seed over the reverse adjacency, whose edges all go *up*.  Either
way a vertex is final when the loop reaches it, so each edge is relaxed
exactly once, with final bits.  Any other snapshot raises ``ValueError``:
a graph that may have cycles is condensed first
(:func:`repro.graph.scc.numbered_dag`), as
:class:`~repro.reachability.msbfs.MultiSourceBFS` and the partition
summaries do.

A sweep of at least :data:`NUMPY_MIN_SEEDS` seeds is served by the numpy
kernels (:mod:`repro.reachability.kernels`), which return identical tables
from a per-snapshot level plan.  A narrower one runs the python loop here:
it is the cheaper of the two until the python harvest's per-(target,
source) work outgrows the plan's fixed per-level cost.

The kernel operates on the flat ``array('q')`` adjacency of a
:class:`~repro.graph.csr.CSRGraph` (see :mod:`repro.graph.csr`) with the
per-vertex bitsets in a dense Python list — no per-visit hashing, no set
boxing.  :class:`~repro.reachability.msbfs.MultiSourceBFS` is a thin
:class:`~repro.reachability.base.ReachabilityIndex` wrapper around it; the
partition summaries, the compound-graph expansion in the DSR engine and the
``benchmarks/bench_csr_kernel.py`` micro-benchmark all call into this module
through that wrapper or directly.

Batches wider than ``batch_size`` sources are split so the per-vertex ints
stay small; 512-bit ints are still cheap to OR/AND in CPython.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.graph.csr import CSRGraph
from repro.reachability import kernels as _kernels
from repro.reachability.packed import iter_bits

#: Default number of sources propagated per kernel pass.
DEFAULT_BATCH_SIZE = 512

#: Seed count from which the numpy kernels serve a sweep; narrower ones run
#: the python loop.  Measured per ``set_reachability_rows``
#: call, python loop / numpy level plan, on the 2140-vertex, 7546-edge,
#: 48-level condensation of the spine's ``dag(2000, 8000)`` compound graph 0.
#: Under an 8-bit target mask — 77 % of the kernel calls of an 8x8 query, and
#: 1-3 seeds each: 0.12/0.21 ms at 1 seed, 0.22/0.29 at 2, 0.24/0.27 at 4,
#: 0.33/0.34 at 8, 0.39/0.34 at 10, 0.43/0.34 at 16, 0.68/0.50 at 64.  Under
#: a mask of several hundred handle bits the python *harvest* (per target
#: bit x source bit) moves the crossover down to 2 seeds (0.20/0.21 at 1,
#: 0.38/0.30 at 2, 0.53/0.28 at 8), which this constant gives away: at most
#: 0.2 ms on a fifth of the narrow calls.  On a 4-vertex condensation (the
#: ``web_graph`` rig) no sweep has 8 seeds and the python loop wins at every
#: width, 0.015 against 0.028 ms.
NUMPY_MIN_SEEDS = 8


def propagate(csr: CSRGraph, seed_bits: Dict[int, int], reverse: bool = False) -> List[int]:
    """Propagate the seed bits along the edges and return the ``seen`` table.

    ``seed_bits`` maps *dense* vertex indices to their initial bitsets;
    the returned list maps every dense vertex index to the OR of all source
    bits that reach it (seeds included).  With ``reverse=True`` the frontier
    follows in-edges instead (useful for backward processing).  ``csr`` must
    be topologically numbered (``ValueError`` otherwise).

    Which tier serves is decided from the input alone (see the module
    docstring); both return the same table.
    """
    _kernels.require_numbered(csr)
    width = max((bits.bit_length() for bits in seed_bits.values()), default=0)
    if _numpy_serves(width):
        return _kernels.np_propagate(csr, seed_bits, reverse=reverse)
    return _propagate_python(csr, seed_bits, reverse)


def _numpy_serves(num_seeds: int) -> bool:
    """Tier choice for one call, by its width alone."""
    return num_seeds >= NUMPY_MIN_SEEDS


def _propagate_python(csr: CSRGraph, seed_bits: Dict[int, int], reverse: bool) -> List[int]:
    """One pass over a topologically numbered snapshot, in either direction.

    Forward edges go to strictly lower indices and reverse edges to strictly
    higher ones, so a descending (forward) or ascending (reverse) loop
    stands on ``vertex`` only after all its predecessors in that direction
    have been passed: ``seen[vertex]`` is final, and each edge out of a
    reached vertex is relaxed exactly once, with final bits.
    """
    _kernels.count_sweep("python")
    seen = [0] * csr.num_vertices
    if not seed_bits:
        return seen
    for vertex, bits in seed_bits.items():
        seen[vertex] = bits
    if reverse:
        offsets, targets = csr.rev_offsets, csr.rev_targets
        order = range(min(seed_bits), csr.num_vertices - 1)
    else:
        offsets, targets = csr.fwd_offsets, csr.fwd_targets
        order = range(max(seed_bits), 0, -1)
    for vertex in order:
        bits = seen[vertex]
        if bits:
            for succ in targets[offsets[vertex] : offsets[vertex + 1]]:
                seen[succ] |= bits
    return seen


def set_reachability_rows(
    csr: CSRGraph,
    sources: Iterable[int],
    target_mask: Optional[int] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    reverse: bool = False,
) -> Dict[int, int]:
    """Packed ``{source: row}`` over the snapshot's dense vertex numbering.

    Bit ``r`` of a row is set iff dense vertex ``r`` is reachable from the
    source (with ``reverse=True``: iff it *reaches* the source);
    ``target_mask`` restricts the rows to the masked dense indices
    (``None`` keeps every reached vertex).  The W-wide frontier propagates
    once per batch and the harvest walks only the *reached* target bits —
    ``O(hits)`` big-int work — instead of probing every (source, target)
    combination, which is what makes covering all ``B`` boundary vertices
    cost ``ceil(B/W)`` kernel passes rather than per-source scans.

    Sources are original vertex ids; ids absent from the snapshot yield
    all-zero rows.  A source covered by the mask always reaches itself.
    ``csr`` must be topologically numbered (``ValueError`` otherwise).
    """
    _kernels.require_numbered(csr)
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    source_list = list(sources)
    if _numpy_serves(min(len(source_list), batch_size)):
        return _kernels.np_set_reachability_rows(
            csr, source_list, target_mask, batch_size, reverse
        )
    return _rows_python(csr, source_list, target_mask, batch_size, reverse)


def _rows_python(
    csr: CSRGraph,
    source_list: List[int],
    target_mask: Optional[int],
    batch_size: int,
    reverse: bool,
) -> Dict[int, int]:
    """The python loop of :func:`set_reachability_rows`: sweep, then harvest."""
    rows: Dict[int, int] = {source: 0 for source in source_list}
    valid_sources = [source for source in source_list if csr.has_vertex(source)]
    if not valid_sources or target_mask == 0:
        return rows

    # Per-source rows accumulate as bit marks in bytearrays and become ints
    # with one from_bytes each at the end — a growing-bigint ``row |= bit``
    # per hit would cost O(hits · width/64) in reallocation copies.
    width = (csr.num_vertices + 7) >> 3
    buffers: Dict[int, bytearray] = {}
    for start in range(0, len(valid_sources), batch_size):
        batch = valid_sources[start : start + batch_size]
        seeds: Dict[int, int] = {}
        for position, source in enumerate(batch):
            index = csr.index_of(source)
            seeds[index] = seeds.get(index, 0) | (1 << position)
        seen = _propagate_python(csr, seeds, reverse)
        # Harvest: per reached target index, distribute its source bits.
        if target_mask is None:
            indices: Iterable[int] = range(csr.num_vertices)
        else:
            indices = iter_bits(target_mask)
        for target_index in indices:
            bits = seen[target_index]
            if not bits:
                continue
            byte_index = target_index >> 3
            byte_bit = 1 << (target_index & 7)
            for position in iter_bits(bits):
                source = batch[position]
                buffer = buffers.get(source)
                if buffer is None:
                    buffer = bytearray(width)
                    buffers[source] = buffer
                buffer[byte_index] |= byte_bit
    for source, buffer in buffers.items():
        rows[source] = int.from_bytes(buffer, "little")
    return rows

