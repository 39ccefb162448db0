"""Bitset multi-source sweep kernel over CSR snapshots.

This is the batched traversal kernel behind every ``localSetReachability(.)``
hot path: instead of running ``W`` separate traversals for a ``W``-source
set-reachability query, one sweep propagates a *W-wide frontier* — every dense
vertex carries one arbitrary-width Python ``int`` whose bit ``p`` means
"source number ``p`` reaches this vertex" — so an edge is relaxed for the
whole batch at once instead of once per source (the memoisation the paper
observes for large query sets, Fig. 7; cf. Then et al. [30]).

Two sweeps compute that table, chosen per call from the snapshot alone:

**One pass**, when the snapshot is a topologically numbered DAG —
:meth:`~repro.graph.csr.CSRGraph.edges_descend`: every edge goes to a
strictly lower dense index, which :func:`repro.graph.scc.condense` guarantees
for every condensation, i.e. for every step-1/step-3 call of every executor.
A single descending loop from the highest seed ORs each reached vertex's
bits into its successors; a vertex is final when the loop reaches it, so
each edge is relaxed exactly once, with final bits.

**BFS to fixpoint**, for everything else — cyclic or arbitrarily numbered
snapshots (the raw local graphs of the summary and equivalence builders,
``make_reachability_index("msbfs", any_graph)``) and ``reverse=True``
sweeps.  A level ORs the parent's bits into each successor and re-enqueues
the vertices that gained *new* bits, so on a deep DAG a vertex re-enters
the frontier once per level at which bits arrive — which is what the one
pass saves.

The fixpoint is unique, so both return identical tables, as does the numpy
tier (:mod:`repro.reachability.kernels`), whose one-pass form is a
per-snapshot level plan.  With numpy selected, a one-pass sweep narrower
than :data:`NUMPY_MIN_SEEDS` still runs the python loop here: it is the
cheaper of the two until the python harvest's per-(target, source) work
outgrows the plan's fixed per-level cost.

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

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.graph.csr import CSRGraph
from repro.reachability import kernels as _kernels
from repro.reachability.packed import iter_bits

#: Default number of sources propagated per kernel pass.
DEFAULT_BATCH_SIZE = 512

#: Seed count from which the numpy tier serves a one-pass sweep itself;
#: narrower ones run the python loop.  Measured per ``set_reachability_rows``
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
    follows in-edges instead (useful for backward processing).

    Which sweep runs and on which tier is decided from the input alone (see
    the module docstring); every combination returns the same table.
    """
    width = max((bits.bit_length() for bits in seed_bits.values()), default=0)
    if _numpy_serves(csr, width, reverse):
        return _kernels.np_propagate(csr, seed_bits, reverse=reverse)
    return _propagate_python(csr, seed_bits, reverse)


def _numpy_serves(csr: CSRGraph, num_seeds: int, reverse: bool) -> bool:
    """Tier choice for one call: numpy selected and the sweep wide enough."""
    if _kernels.kernel_backend() != "numpy":
        return False
    return not (num_seeds < NUMPY_MIN_SEEDS and _kernels.one_pass_applies(csr, reverse))


def _propagate_python(csr: CSRGraph, seed_bits: Dict[int, int], reverse: bool) -> List[int]:
    if _kernels.one_pass_applies(csr, reverse):
        return _propagate_onepass(csr, seed_bits)
    return _propagate_fixpoint(csr, seed_bits, reverse)


def _propagate_onepass(csr: CSRGraph, seed_bits: Dict[int, int]) -> List[int]:
    """Single descending pass over a topologically numbered snapshot.

    Every edge goes to a strictly lower index, so by the time the loop
    stands on ``vertex`` all its predecessors have been passed and
    ``seen[vertex]`` is final: each out-edge of a reached vertex is relaxed
    exactly once, with final bits.
    """
    _kernels.count_sweep("onepass", "python")
    seen = [0] * csr.num_vertices
    if not seed_bits:
        return seen
    for vertex, bits in seed_bits.items():
        seen[vertex] = bits
    offsets, targets = csr.fwd_offsets, csr.fwd_targets
    for vertex in range(max(seed_bits), 0, -1):
        bits = seen[vertex]
        if bits:
            for succ in targets[offsets[vertex] : offsets[vertex + 1]]:
                seen[succ] |= bits
    return seen


def _propagate_fixpoint(
    csr: CSRGraph, seed_bits: Dict[int, int], reverse: bool
) -> List[int]:
    """Level-synchronous BFS to fixpoint, for snapshots of any shape."""
    _kernels.count_sweep("fixpoint", "python")
    seen = [0] * csr.num_vertices
    if reverse:
        offsets, targets = csr.rev_offsets, csr.rev_targets
    else:
        offsets, targets = csr.fwd_offsets, csr.fwd_targets

    frontier: Dict[int, int] = {}
    for vertex, bits in seed_bits.items():
        seen[vertex] |= bits
        frontier[vertex] = frontier.get(vertex, 0) | bits

    while frontier:
        next_frontier: Dict[int, int] = {}
        for vertex, bits in frontier.items():
            for succ in targets[offsets[vertex] : offsets[vertex + 1]]:
                new_bits = bits & ~seen[succ]
                if new_bits:
                    seen[succ] |= new_bits
                    if succ in next_frontier:
                        next_frontier[succ] |= new_bits
                    else:
                        next_frontier[succ] = new_bits
        frontier = next_frontier
    return seen


def set_reachability(
    csr: CSRGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Dict[int, Set[int]]:
    """Batched ``{source: {targets reachable from source}}`` over a snapshot.

    Sources and targets are *original* vertex ids; ids absent from the
    snapshot yield empty result sets (sources) or are ignored (targets).
    A source that is also a target reaches itself.  Sources are processed in
    chunks of ``batch_size`` bits per pass.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    source_list = list(sources)
    result: Dict[int, Set[int]] = {source: set() for source in source_list}
    dense_targets = [
        (target, csr.index_of(target)) for target in set(targets) if csr.has_vertex(target)
    ]
    valid_sources = [source for source in source_list if csr.has_vertex(source)]
    if not valid_sources or not dense_targets:
        return result

    for start in range(0, len(valid_sources), batch_size):
        batch = valid_sources[start : start + batch_size]
        _run_batch(csr, batch, dense_targets, result)
    return result


def _run_batch(
    csr: CSRGraph,
    batch: Sequence[int],
    dense_targets: Sequence[tuple],
    result: Dict[int, Set[int]],
) -> None:
    """Propagate one ≤``batch_size``-source chunk and harvest target bits."""
    seeds: Dict[int, int] = {}
    for position, source in enumerate(batch):
        index = csr.index_of(source)
        seeds[index] = seeds.get(index, 0) | (1 << position)
    seen = propagate(csr, seeds)
    for position, source in enumerate(batch):
        bit = 1 << position
        reached = result[source]
        for target, target_index in dense_targets:
            if seen[target_index] & bit:
                reached.add(target)


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
    (``None`` keeps every reached vertex).  This is the bits-native sibling
    of :func:`set_reachability`: the same W-wide frontier propagates once
    per batch, but the harvest walks only the *reached* target bits —
    ``O(hits)`` big-int work — instead of probing every (source, target)
    combination, which is what makes covering all ``B`` boundary vertices
    cost ``ceil(B/W)`` kernel passes rather than per-source scans.

    Sources are original vertex ids; ids absent from the snapshot yield
    all-zero rows.  A source covered by the mask always reaches itself.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    source_list = list(sources)
    if _numpy_serves(csr, min(len(source_list), batch_size), reverse):
        return _kernels.np_set_reachability_rows(
            csr, source_list, target_mask, batch_size, reverse
        )
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


def reachable(csr: CSRGraph, source: int, target: int) -> bool:
    """Single-pair convenience wrapper over :func:`set_reachability`."""
    return target in set_reachability(csr, [source], [target]).get(source, set())
