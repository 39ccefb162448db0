"""Pluggable bitset-kernel backends: pure-python vs. vectorized numpy.

The hot kernels of the packed pipeline — the multi-source BFS frontier sweep
(:func:`repro.reachability.bitset_msbfs.propagate`), the packed-row harvest
(:func:`~repro.reachability.bitset_msbfs.set_reachability_rows`) and the
rank packing behind the per-SCC member masks
(:func:`repro.reachability.packed.pack_ranks`) — have two implementations:

``python``
    The original arbitrary-width-int loops.  No dependencies, always
    available, and the reference semantics every other backend must match
    byte for byte.

``numpy``
    A level-synchronous sweep over a dense ``(num_vertices, words)`` uint64
    matrix: each BFS level gathers the whole frontier's adjacency with one
    fancy-index, scatter-ORs the frontier bits into the successors with one
    unbuffered ``np.bitwise_or.at``, and keeps only the vertices that gained
    new bits.  The harvest unpacks the seen matrix column-wise
    (``np.unpackbits``/``np.packbits``) so a source's packed row is built
    without per-bit Python work.

Both backends compute the same unique fixpoint — the set of (source, vertex)
reachability facts is fully determined by the graph and the seeds — so their
outputs are **byte-identical** by construction, and every consumer from
:mod:`repro.core.packed_steps` to the wire format is untouched by the switch.
The differential harness in ``tests/proptest/`` pins this down.

Selection is **process-global** (`DSRConfig(kernels=...)` applies it at
engine construction; the ``REPRO_KERNELS`` environment variable seeds the
default).  A global is semantically safe precisely because the outputs are
identical — two engines with different preferences only contend on speed —
and it is what lets forked shard workers inherit the choice without any
payload plumbing.  ``auto`` resolves to ``numpy`` when importable (and the
host is little-endian), else ``python``.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.csr import CSRGraph

#: Names accepted by ``DSRConfig.kernels`` / :func:`set_kernel_backend`.
KERNEL_NAMES = ("auto", "python", "numpy")

_np = None
_np_checked = False
_lock = threading.Lock()


def numpy_available() -> bool:
    """True when the numpy backend can run here (import + little-endian)."""
    return _numpy() is not None


def _numpy():
    """Import numpy once; ``None`` when missing or on a big-endian host.

    The numpy kernels view uint64 word matrices as little-endian byte
    buffers (`.view(uint8)` + ``int.from_bytes(..., "little")``), which is
    only an identity on little-endian hosts — everywhere this project runs,
    but gated anyway so a big-endian port degrades to the python backend
    instead of corrupting rows.
    """
    global _np, _np_checked
    if _np_checked:
        return _np
    with _lock:
        if _np_checked:
            return _np
        module = None
        if sys.byteorder == "little":
            try:
                import numpy as module  # noqa: F811
            except ImportError:  # pragma: no cover - numpy-less environments
                module = None
        _np = module
        _np_checked = True
    return _np


def resolve_kernels(name: str) -> str:
    """Resolve a configured kernels name to a concrete backend.

    ``auto`` picks ``numpy`` when available; asking for ``numpy`` explicitly
    when it cannot run raises so the failure is loud at configuration time,
    not silent at query time.
    """
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernels backend {name!r}; available: {', '.join(KERNEL_NAMES)}"
        )
    if name == "auto":
        return "numpy" if numpy_available() else "python"
    if name == "numpy" and not numpy_available():
        raise ValueError(
            "kernels='numpy' requested but numpy is not importable "
            "(install with `pip install repro-dsr[numpy]` or use kernels='auto')"
        )
    return name


_backend = resolve_kernels(os.environ.get("REPRO_KERNELS", "auto"))


def kernel_backend() -> str:
    """The currently selected backend (``"python"`` or ``"numpy"``)."""
    return _backend


def set_kernel_backend(name: str) -> str:
    """Select the process-global kernel backend; returns the resolved name."""
    global _backend
    _backend = resolve_kernels(name)
    return _backend


@contextmanager
def use_kernels(name: str):
    """Temporarily switch the kernel backend (test/bench helper)."""
    global _backend
    previous = _backend
    _backend = resolve_kernels(name)
    try:
        yield _backend
    finally:
        _backend = previous


# ---------------------------------------------------------------------- #
# numpy implementations
# ---------------------------------------------------------------------- #
def _as_int64(np, buffer):
    """Zero-copy int64 view of an ``array('q')`` or shared memoryview."""
    if len(buffer) == 0:
        return np.empty(0, dtype=np.int64)
    return np.frombuffer(buffer, dtype=np.int64)


def _seed_matrix(np, csr: "CSRGraph", seed_bits: Dict[int, int]):
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


def np_propagate_matrix(csr: "CSRGraph", seed_bits: Dict[int, int], reverse: bool = False):
    """Run the frontier sweep to fixpoint; returns the ``(n, words)`` matrix.

    One BFS level = one adjacency gather over the whole frontier + one
    scatter-OR into the successors; a vertex re-enters the frontier only
    with the bits it *gained* this level, mirroring the python kernel's
    termination exactly (the fixpoint itself is unique either way).
    """
    np = _numpy()
    n = csr.num_vertices
    if reverse:
        offsets = _as_int64(np, csr.rev_offsets)
        targets = _as_int64(np, csr.rev_targets)
    else:
        offsets = _as_int64(np, csr.fwd_offsets)
        targets = _as_int64(np, csr.fwd_targets)

    if not seed_bits:
        return np.zeros((n, 1), dtype=np.uint64)
    frontier_idx, frontier_bits, words = _seed_matrix(np, csr, seed_bits)
    seen = np.zeros((n, words), dtype=np.uint64)
    # Seeds may repeat a vertex; scatter-OR folds duplicates correctly.
    np.bitwise_or.at(seen, frontier_idx, frontier_bits)
    frontier_idx, frontier_bits = _nonzero_rows(np, frontier_idx, seen[frontier_idx])

    while frontier_idx.size:
        starts = offsets[frontier_idx]
        degrees = (offsets[frontier_idx + 1] - starts).astype(np.int64)
        total = int(degrees.sum())
        if not total:
            break
        # Concatenate the frontier's adjacency runs without a Python loop:
        # positions k in [0, total) map to targets[starts[i] + local_k].
        run_ids = np.repeat(np.arange(frontier_idx.size, dtype=np.int64), degrees)
        run_starts = np.repeat(starts, degrees)
        run_first = np.repeat(np.cumsum(degrees) - degrees, degrees)
        successors = targets[run_starts + (np.arange(total, dtype=np.int64) - run_first)]
        carried = frontier_bits[run_ids]

        unique_succ, inverse = np.unique(successors, return_inverse=True)
        gathered = np.zeros((unique_succ.size, words), dtype=np.uint64)
        np.bitwise_or.at(gathered, inverse, carried)
        new_bits = gathered & ~seen[unique_succ]
        gained = new_bits.any(axis=1)
        if not gained.any():
            break
        frontier_idx = unique_succ[gained]
        frontier_bits = new_bits[gained]
        seen[frontier_idx] |= frontier_bits
    return seen


def _nonzero_rows(np, indices, rows):
    keep = rows.any(axis=1)
    return indices[keep], rows[keep]


def np_propagate(csr: "CSRGraph", seed_bits: Dict[int, int], reverse: bool = False) -> List[int]:
    """Numpy sibling of :func:`repro.reachability.bitset_msbfs.propagate`."""
    seen = np_propagate_matrix(csr, seed_bits, reverse=reverse)
    row_bytes = seen.view("uint8" if seen.size else "uint8")
    return [
        int.from_bytes(row_bytes[i].tobytes(), "little") for i in range(seen.shape[0])
    ]


def np_set_reachability_rows(
    csr: "CSRGraph",
    sources: Iterable[int],
    target_mask: Optional[int] = None,
    batch_size: int = 512,
    reverse: bool = False,
) -> Dict[int, int]:
    """Numpy sibling of ``bitset_msbfs.set_reachability_rows`` (byte-identical).

    The harvest transposes the seen matrix with ``np.unpackbits`` /
    ``np.packbits`` (bit order ``little``, matching the row encoding), so a
    source's full packed row materialises with two vectorised passes instead
    of a per-(target, source-bit) Python loop.
    """
    np = _numpy()
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    source_list = list(sources)
    rows: Dict[int, int] = {source: 0 for source in source_list}
    valid_sources = [source for source in source_list if csr.has_vertex(source)]
    n = csr.num_vertices
    if not valid_sources or target_mask == 0 or not n:
        return rows

    if target_mask is None:
        keep = None
    else:
        mask_bytes = target_mask.to_bytes((n + 7) >> 3, "little")
        keep = np.unpackbits(
            np.frombuffer(mask_bytes, dtype=np.uint8), count=n, bitorder="little"
        ).astype(bool)

    for start in range(0, len(valid_sources), batch_size):
        batch = valid_sources[start : start + batch_size]
        seeds: Dict[int, int] = {}
        for position, source in enumerate(batch):
            index = csr.index_of(source)
            seeds[index] = seeds.get(index, 0) | (1 << position)
        seen = np_propagate_matrix(csr, seeds, reverse=reverse)
        if keep is not None:
            seen = seen * keep[:, None]
        # Transpose bits: column p of the unpacked matrix is source p's row.
        columns = np.unpackbits(
            seen.view(np.uint8), axis=1, count=len(batch), bitorder="little"
        )
        hit_any = columns.any(axis=0)
        for position, source in enumerate(batch):
            if not hit_any[position]:
                continue
            packed = np.packbits(columns[:, position], bitorder="little")
            rows[source] |= int.from_bytes(packed.tobytes(), "little")
    return rows


def np_pack_ranks(ranks: Sequence[int]) -> int:
    """Numpy sibling of :func:`repro.reachability.packed.pack_ranks`."""
    np = _numpy()
    if not len(ranks):
        return 0
    rank_arr = np.asarray(ranks, dtype=np.int64)
    buffer = np.zeros((int(rank_arr[-1]) >> 3) + 1, dtype=np.uint8)
    np.bitwise_or.at(
        buffer, rank_arr >> 3, np.left_shift(np.uint8(1), (rank_arr & 7).astype(np.uint8))
    )
    return int.from_bytes(buffer.tobytes(), "little")


__all__ = [
    "KERNEL_NAMES",
    "kernel_backend",
    "numpy_available",
    "np_pack_ranks",
    "np_propagate",
    "np_propagate_matrix",
    "np_set_reachability_rows",
    "resolve_kernels",
    "set_kernel_backend",
    "use_kernels",
]
