"""Hypothesis property layer: numpy kernels are byte-identical to python.

Where ``test_differential.py`` replays fixed seeded scenarios through whole
engines, this file attacks the kernel boundary directly with
hypothesis-generated graphs, seeds and masks — the raw
``propagate`` / ``set_reachability_rows`` / ``pack_ranks`` contracts, where
"identical" means identical Python ints (same bytes, same everything).

Skipped wholesale when hypothesis or numpy is missing; the pure-python
backend needs no differential witness — it *is* the reference.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.graph.digraph import DiGraph  # noqa: E402
from repro.reachability import bitset_msbfs  # noqa: E402
from repro.reachability.kernels import (  # noqa: E402
    np_pack_ranks,
    np_propagate,
    np_set_reachability_rows,
    numpy_available,
    use_kernels,
)
from repro.reachability.packed import pack_ranks  # noqa: E402

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

COMMON_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

vertex_ids = st.integers(min_value=0, max_value=60)
edge_lists = st.lists(st.tuples(vertex_ids, vertex_ids), max_size=200)


def _graph_of(edges, extra_vertices=()):
    graph = DiGraph()
    for vertex in extra_vertices:
        graph.add_vertex(vertex)
    for u, v in edges:
        graph.add_vertex(u)
        graph.add_vertex(v)
        if u != v:
            graph.add_edge(u, v)
    return graph


@COMMON_SETTINGS
@given(
    edges=edge_lists,
    isolated=st.lists(st.integers(min_value=61, max_value=70), max_size=4),
    seed_positions=st.lists(st.integers(min_value=0, max_value=59), max_size=6),
    seed_widths=st.lists(st.integers(min_value=1, max_value=700), min_size=6, max_size=6),
    reverse=st.booleans(),
)
def test_propagate_parity(edges, isolated, seed_positions, seed_widths, reverse):
    graph = _graph_of(edges, isolated)
    if not graph.num_vertices:
        return
    csr = graph.csr()
    seeds = {}
    for position, width in zip(seed_positions, seed_widths):
        index = position % csr.num_vertices
        seeds[index] = seeds.get(index, 0) | (1 << (width - 1)) | (width * 7919)
    with use_kernels("python"):
        reference = bitset_msbfs.propagate(csr, seeds, reverse=reverse)
    assert np_propagate(csr, seeds, reverse=reverse) == reference


@COMMON_SETTINGS
@given(
    edges=edge_lists,
    source_picks=st.lists(st.integers(min_value=0, max_value=59), max_size=40),
    mask_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**80 - 1)),
    batch_size=st.sampled_from([1, 3, 64, 512]),
    reverse=st.booleans(),
)
def test_set_reachability_rows_parity(edges, source_picks, mask_seed, batch_size, reverse):
    graph = _graph_of(edges)
    if not graph.num_vertices:
        return
    csr = graph.csr()
    ids = sorted(graph.vertices())
    sources = [ids[p % len(ids)] for p in source_picks]
    mask = None if mask_seed is None else mask_seed % (1 << csr.num_vertices)
    with use_kernels("python"):
        reference = bitset_msbfs.set_reachability_rows(
            csr, sources, mask, batch_size=batch_size, reverse=reverse
        )
        # A reverse row is the forward row of the reversed graph.
        assert reference == bitset_msbfs.set_reachability_rows(
            (graph.reverse() if reverse else graph).csr(), sources, mask,
            batch_size=batch_size,
        )
    got = np_set_reachability_rows(
        csr, sources, mask, batch_size=batch_size, reverse=reverse
    )
    assert got == reference
    # Byte-identical, not merely equal-as-sets: compare serialised rows too.
    for source in reference:
        assert got[source].to_bytes(
            (got[source].bit_length() + 7) // 8, "little"
        ) == reference[source].to_bytes(
            (reference[source].bit_length() + 7) // 8, "little"
        )


@COMMON_SETTINGS
@given(
    ranks=st.lists(st.integers(min_value=0, max_value=5000), max_size=300).map(
        lambda values: sorted(set(values))
    )
)
def test_pack_ranks_parity(ranks):
    with use_kernels("python"):
        reference = pack_ranks(ranks)
    if ranks:
        assert np_pack_ranks(ranks) == reference
    with use_kernels("numpy"):
        assert pack_ranks(ranks) == reference
