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
reverse sweep (bits flow against the edges) ascends from the lowest seed
over the reverse adjacency, whose edges all go *up*.  Either way a vertex
is final when the loop reaches it, so each edge is relaxed at most once,
with final bits.  Any other snapshot raises ``ValueError``: a graph that
may have cycles is condensed first (:func:`repro.graph.scc.numbered_dag`),
as :class:`~repro.reachability.msbfs.MultiSourceBFS` and the partition
summaries do.

:func:`set_reachability_rows` — the one entry of every row call: both
query steps on every executor, the partition summaries and
``MultiSourceBFS`` — applies two rules, each a pure function of the call's
inputs (the paper's smaller-side rule, Section 3.3.2, per kernel call):

* **Side.**  When the target mask has fewer bits than the call has
  distinct seed indices, the masked targets seed the sweep and it runs the
  other way; a seed's harvest then names the targets it reaches, and bit
  ``j`` becomes target ``t_j`` of its row.  ``reverse=True`` calls turn
  round alike.
* **Window.**  A sweep stops once every index it is read at is final: the
  python loop at the farthest one, the numpy level plan after the last
  level that writes one.

A sweep seeded with at least :data:`NUMPY_MIN_SEEDS` bits is served by the
numpy kernels (:mod:`repro.reachability.kernels`), which return identical
rows from a per-snapshot level plan.  A narrower one runs the python loop
here: it is the cheaper of the two until its per-vertex work outgrows the
plan's fixed per-level cost.

The kernel operates on the flat ``array('q')`` adjacency of a
:class:`~repro.graph.csr.CSRGraph` (see :mod:`repro.graph.csr`) with the
per-vertex bitsets in a dense Python list — no per-visit hashing, no set
boxing.  :class:`~repro.reachability.msbfs.MultiSourceBFS` is a thin
:class:`~repro.reachability.base.ReachabilityIndex` wrapper around it; the
partition summaries, the DSR engine's one query kernel
(:func:`repro.core.packed_steps.condensation_rows`) and the
``benchmarks/bench_csr_kernel.py`` micro-benchmark all call into this module
through that wrapper or directly.

Batches wider than ``batch_size`` sources are split so the per-vertex ints
stay small; 512-bit ints are still cheap to OR/AND in CPython.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.graph.csr import CSRGraph
from repro.reachability import kernels as _kernels
from repro.reachability.packed import iter_bits, pack_ranks, popcount

#: Default number of sources propagated per kernel pass.
DEFAULT_BATCH_SIZE = 512

#: Width of the seeding side — the seeds, or the masked targets when they
#: are fewer — from which the numpy kernels serve a sweep; narrower sweeps
#: run the python loop.  Measured on every kernel call the spine's
#: ``dag(2000, 8000)`` rig records, by that width, median python loop /
#: numpy ms per call (best of 5; x86_64, 2 cores, Python 3.11).
#: ``point_uncached`` (4 partitions, 200 8x8 queries) never sweeps more than
#: 7 bits: under a mask of at most 8 bits 0.08/0.13 at 1, 0.12/0.16 at 2,
#: 0.17/0.18 at 4, 0.25/0.20 at 6; under a mask of several hundred handle
#: bits 0.16/0.24 at 1, 0.24/0.26 at 2, 0.32/0.28 at 4, 0.40/0.30 at 5.
#: ``batch_sharded`` (2 partitions, 20 128x128 queries) sweeps 3-8 bits
#: under 8-bit masks (0.21-0.27 / 0.34-0.41), 9-17 targets towards ~128
#: handle seeds (0.24/0.43 at 9, 0.27/0.45 at 11, 0.31/0.52 at 13,
#: 0.42/0.71 at 17) and 52-76 seeds under a handle mask (1.2-1.9 /
#: 0.38-0.96): python wins every recorded call up to 17 bits, numpy every
#: one from 52, and none lies between.  Synthetic calls on the same
#: condensations (random seeds and targets drawn from the recorded calls)
#: cross at 4-6 bits, so the constant sits at the low end of the gap.  A
#: numpy sweep in a new direction also builds that direction's level plan
#: once per snapshot (≈ 2.5 ms): at 8 the step-3 sweeps from the targets
#: built the reverse plan on the first read of every epoch, and a fresh
#: 128x128 read after a flush took 13.5 ms against 11.7 at 16 (in-process,
#: serial stand-in).  On a 4-vertex condensation (the ``web_graph`` rig)
#: the python loop wins at every width, 0.015 against 0.028 ms.
NUMPY_MIN_SEEDS = 16


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


def _propagate_python(
    csr: CSRGraph, seed_bits: Dict[int, int], reverse: bool, harvest: Optional[int] = None
) -> List[int]:
    """One pass over a topologically numbered snapshot, in either direction.

    Forward edges go to strictly lower indices and reverse edges to strictly
    higher ones, so a descending (forward) or ascending (reverse) loop
    stands on ``vertex`` only after all its predecessors in that direction
    have been passed: ``seen[vertex]`` is final, and each edge out of a
    reached vertex is relaxed exactly once, with final bits.  The loop stops
    at the farthest index set in ``harvest``, the mask of indices the caller
    reads (``None``: every index), which is final by then.
    """
    _kernels.count_sweep("python")
    seen = [0] * csr.num_vertices
    if not seed_bits:
        return seen
    for vertex, bits in seed_bits.items():
        seen[vertex] = bits
    if reverse:
        offsets, targets = csr.rev_offsets, csr.rev_targets
        stop = csr.num_vertices if harvest is None else harvest.bit_length()
        order = range(min(seed_bits), stop - 1)
    else:
        offsets, targets = csr.fwd_offsets, csr.fwd_targets
        stop = 0 if harvest is None else (harvest & -harvest).bit_length() - 1
        order = range(max(seed_bits), stop, -1)
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
    (``None`` keeps every reached vertex).  Sources are original vertex
    ids; ids absent from the snapshot yield all-zero rows, and a source
    covered by the mask always reaches itself.  ``csr`` must be
    topologically numbered (``ValueError`` otherwise).

    The sweep seeds the smaller side, ``batch_size`` bits per pass.  When
    the mask has fewer bits than the call has distinct seed indices, the
    masked targets seed it in the opposite direction, and bit ``j`` of a
    seed's harvest is the target ``t_j`` its row gets; otherwise the seed
    indices seed it and the harvest walks only the *reached* target bits —
    ``O(hits)`` work — instead of probing every (source, target) pair.
    Either way the sweep spans only the window between its seeds and the
    indices it is read at.
    """
    _kernels.require_numbered(csr)
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    rows: Dict[int, int] = dict.fromkeys(sources, 0)
    index_of = {source: csr.index_of(source) for source in rows if csr.has_vertex(source)}
    seeds = sorted(set(index_of.values()))
    if not seeds or target_mask == 0:
        return rows
    found = dict.fromkeys(seeds, 0)
    if target_mask is not None and popcount(target_mask) < len(seeds):
        targets = list(iter_bits(target_mask))
        seed_mask = pack_ranks(seeds)
        for start in range(0, len(targets), batch_size):
            batch = targets[start : start + batch_size]
            for seed, row in zip(seeds, _sweep_rows(csr, batch, seed_mask, not reverse, False)):
                found[seed] |= row
    else:
        for start in range(0, len(seeds), batch_size):
            batch = seeds[start : start + batch_size]
            found.update(zip(batch, _sweep_rows(csr, batch, target_mask, reverse, True)))
    for source, index in index_of.items():
        rows[source] = found[index]
    return rows


def _sweep_rows(
    csr: CSRGraph, batch: List[int], harvest: Optional[int], reverse: bool, transpose: bool
) -> List[int]:
    """One sweep seeded at the ascending indices ``batch``, read at ``harvest``.

    Bit ``j`` starts at ``batch[j]`` and the sweep is read at the indices
    set in the mask ``harvest`` (``None``: every index).  With
    ``transpose`` the result is each batch index's row of the harvest
    indices its bit reaches; without, each harvest index's row (ascending)
    of the batch indices whose bits reach it.  The tier is picked by the
    batch's width.
    """
    if _numpy_serves(len(batch)):
        return _kernels.np_sweep_rows(csr, batch, harvest, reverse, transpose)
    seen = _propagate_python(
        csr, {index: 1 << j for j, index in enumerate(batch)}, reverse, harvest
    )
    indices = range(csr.num_vertices) if harvest is None else iter_bits(harvest)
    if not transpose:
        # Seeds with equal harvests share one row: each distinct one is packed once.
        found = [seen[index] for index in indices]
        rows = {bits: pack_ranks([batch[j] for j in iter_bits(bits)]) for bits in set(found)}
        return [rows[bits] for bits in found]
    hits: List[List[int]] = [[] for _ in batch]
    for index in indices:
        bits = seen[index]
        if bits:
            for j in iter_bits(bits):
                hits[j].append(index)
    return [pack_ranks(ranks) for ranks in hits]
