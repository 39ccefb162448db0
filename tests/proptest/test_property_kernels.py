"""Hypothesis property layer: every sweep on either side computes one table.

Where ``test_differential.py`` replays fixed seeded scenarios through whole
engines, this file attacks the kernel boundary directly with
hypothesis-generated graphs, seeds and masks — the raw
``propagate`` / ``set_reachability_rows`` / ``pack_ranks`` contracts and
the batched row transforms (``BitGather``, ``unpack_rows``,
``invert_rows``), where "identical" means identical Python ints (same
bytes, same everything).

Each of those calls picks the python loop or the numpy function by its
input size; the ``crossover`` fixture forces every call onto one side, so
a test that takes it runs once on the python loops and once on numpy.

Every sweep is one pass over a topologically numbered DAG, so every graph
drawn here is one: hand-numbered DAGs and ``condense()`` of arbitrary
(mostly cyclic) graphs.  The *parity* tests hold the python loops to the
numpy functions on the condensations; the *one-pass* tests hold each side,
in both directions, to the independent oracle ``reachable_pairs``; their
negative cases (an ascending edge, a 2-cycle, a self-loop) must be refused
with ``ValueError``.  Last, a partition summary built over random cyclic
local graphs must give every in-boundary exactly its ``reachable_pairs``
reach.

Skipped wholesale when hypothesis is missing.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core.summary import build_partition_summary  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.graph.digraph import DiGraph  # noqa: E402
from repro.graph.scc import condense  # noqa: E402
from repro.graph.traversal import reachable_pairs  # noqa: E402
from repro.obs import use_registry  # noqa: E402
from repro.partition.partition import GraphPartitioning  # noqa: E402
from repro.reachability import bitset_msbfs  # noqa: E402
from repro.reachability.kernels import (  # noqa: E402
    np_gather_plan,
    np_gather_rows,
    np_invert_rows,
    np_objects,
    np_pack_ranks,
    np_propagate,
    np_sweep_rows,
    np_unpack_rows,
)
from repro.reachability.packed import (  # noqa: E402
    NUMPY_MIN_ROWS,
    BitGather,
    VertexRank,
    invert_rows,
    pack_ranks,
)

COMMON_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    # The crossover fixture patches module constants once per test, and
    # every example of the test runs on the side it chose.
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

vertex_ids = st.integers(min_value=0, max_value=60)
edge_lists = st.lists(st.tuples(vertex_ids, vertex_ids), max_size=200)


def _reversed(graph):
    """``graph`` (a ``DiGraph`` or a snapshot) with every edge reversed."""
    return DiGraph.from_edges(((v, u) for u, v in graph.edges()), graph.vertices())


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
    csr = condense(graph)[0]
    seeds = {}
    for position, width in zip(seed_positions, seed_widths):
        index = position % csr.num_vertices
        seeds[index] = seeds.get(index, 0) | (1 << (width - 1)) | (width * 7919)
    reference = bitset_msbfs._propagate_python(csr, seeds, reverse)
    assert np_propagate(csr, seeds, reverse=reverse) == reference


@COMMON_SETTINGS
@given(
    edges=edge_lists,
    source_picks=st.lists(st.integers(min_value=0, max_value=59), max_size=40),
    mask_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**80 - 1)),
    batch_size=st.sampled_from([1, 3, 64, 512]),
    reverse=st.booleans(),
)
def test_set_reachability_rows_parity(
    crossover, edges, source_picks, mask_seed, batch_size, reverse
):
    graph = _graph_of(edges)
    if not graph.num_vertices:
        return
    csr, component_of = condense(graph)
    ids = sorted(graph.vertices())
    sources = [component_of[ids[p % len(ids)]] for p in source_picks]
    mask = None if mask_seed is None else mask_seed % (1 << csr.num_vertices)
    reference = bitset_msbfs.set_reachability_rows(
        csr, sources, mask, batch_size=batch_size, reverse=reverse
    )
    assert reference == _oracle_rows(csr, csr, sources, mask, reverse)
    side = crossover.side
    crossover.force("python" if side == "numpy" else "numpy")
    try:
        got = bitset_msbfs.set_reachability_rows(
            csr, sources, mask, batch_size=batch_size, reverse=reverse
        )
    finally:
        crossover.force(side)
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
def test_pack_ranks_parity(crossover, ranks):
    reference = pack_ranks(ranks)
    assert reference == sum(1 << rank for rank in ranks)
    if ranks:
        assert np_pack_ranks(ranks) == reference


# ---------------------------------------------------------------------- #
# batched row transforms: gather, scatter, unpack, invert
# ---------------------------------------------------------------------- #
#: Batch sizes around the numpy threshold, plus the empty batch.
BATCH_SIZES = sorted({0, 1, NUMPY_MIN_ROWS - 1, NUMPY_MIN_ROWS, NUMPY_MIN_ROWS + 1})


@st.composite
def row_batches(draw):
    """``(in_width, index, rows, mask)``: a bit map and a batch of rows over it.

    Widths are drawn freely (mostly not multiples of 8) and rows include
    zeros.  Rows are ANDed with the mask first, as the query steps do, and
    it may be zero; each test then keeps the bits its call accepts.
    """
    in_width = draw(st.integers(min_value=1, max_value=150))
    index = draw(
        st.lists(st.integers(min_value=0, max_value=in_width - 1), max_size=170)
    )
    count = draw(
        st.one_of(st.sampled_from(BATCH_SIZES), st.integers(min_value=0, max_value=40))
    )
    rows = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=0, max_value=2 ** (in_width + 9) - 1)),
            min_size=count,
            max_size=count,
        )
    )
    mask = draw(st.one_of(st.just(0), st.just(-1), st.integers(min_value=0, max_value=2**160)))
    return in_width, index, [row & mask for row in rows], mask


def _gathered(row, index):
    """Oracle: output bit ``j`` is input bit ``index[j]``."""
    return sum((row >> i & 1) << j for j, i in enumerate(index))


@COMMON_SETTINGS
@given(batch=row_batches())
def test_bit_gather_matches_the_oracle(crossover, batch):
    _, index, rows, _ = batch
    # A gathered row sets only bits some output reads (component rows,
    # hits masked to the handles).
    read = pack_ranks(sorted(set(index)))
    rows = [row & read for row in rows]
    expected = [_gathered(row, index) for row in rows]
    assert BitGather(index).gather(rows) == expected
    if rows and index:
        assert np_gather_rows(rows, np_gather_plan(index)) == expected
    # The scatter runs the map the other way: output bit index[j] ORs input
    # bit j, for a row over the index's own positions.
    for row in rows[:4]:
        row &= (1 << len(index)) - 1
        scattered = 0
        for j, i in enumerate(index):
            scattered |= (row >> j & 1) << i
        assert BitGather(index).scatter(row) == scattered


@COMMON_SETTINGS
@given(batch=row_batches())
def test_unpack_and_invert_rows_agree_across_tiers(crossover, batch):
    in_width, _, rows, _ = batch
    rows = [row & ((1 << in_width) - 1) for row in rows]
    rank = VertexRank([1000 + 7 * r for r in range(in_width)])
    labels = [3 * position for position in range(in_width)]
    members = [[source, source + 1][: source % 3] for source in range(len(rows))]
    unpacked = rank.unpack_rows(rows)
    inverted = invert_rows(rows, members, labels)
    assert unpacked == [rank.unpack(row) for row in rows]
    expected: dict = {}
    for position in range(in_width):
        for row, row_members in zip(rows, members):
            if row >> position & 1:
                expected.setdefault(labels[position], []).extend(row_members)
    assert list(inverted.items()) == list(expected.items())
    assert np_unpack_rows(rows, np_objects(rank.ids)) == unpacked
    assert list(np_invert_rows(rows, members, labels).items()) == list(inverted.items())


# ---------------------------------------------------------------------- #
# one-pass sweeps over topologically numbered snapshots
# ---------------------------------------------------------------------- #
def _sweep_tiers(registry):
    return {
        tier
        for tier in ("python", "numpy")
        if registry.counter_value("dsr_kernel_sweeps_total", tier=tier)
    }


@st.composite
def numbered_dags(draw):
    """A DAG whose every edge goes to a lower vertex id, two ways.

    Edge lists come from a drawn ``random.Random`` seed and a drawn density:
    hypothesis' own lists are mostly short, which leaves nothing to reach.
    """
    size = draw(st.integers(min_value=1, max_value=80))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    pairs = [
        (rng.randrange(size), rng.randrange(size))
        for _ in range(draw(st.integers(min_value=0, max_value=3 * size)))
    ]
    if draw(st.booleans()):
        graph = DiGraph()
        # Gaps in the ids: the dense index is the id's rank, not the id.
        stride = draw(st.sampled_from([1, 3]))
        for vertex in range(size):
            graph.add_vertex(vertex * stride)
        for a, b in pairs:
            if a != b:
                graph.add_edge(max(a, b) * stride, min(a, b) * stride)
        return graph
    return condense(_graph_of(pairs, extra_vertices=range(size)))[0]


def _drawn_sources(graph, count, seed):
    """``count`` sources with duplicates and a few ids the snapshot lacks."""
    rng = random.Random(seed)
    ids = sorted(graph.vertices())
    return [
        rng.choice(ids) if rng.random() < 0.95 else -1 - rng.randrange(3)
        for _ in range(count)
    ]


def _oracle_rows(graph, csr, sources, mask, reverse):
    """``reachable_pairs``, packed over the snapshot's dense numbering."""
    keep = (1 << csr.num_vertices) - 1 if mask is None else mask
    expected = {source: 0 for source in sources}
    oracle_graph = _reversed(graph) if reverse else graph
    for source, target in reachable_pairs(oracle_graph, set(sources), csr.ids):
        expected[source] |= (1 << csr.index_of(target)) & keep
    return expected


@COMMON_SETTINGS
@given(
    graph=numbered_dags(),
    seed_positions=st.lists(st.integers(min_value=0, max_value=79), max_size=12),
    seed_widths=st.lists(st.integers(min_value=1, max_value=700), min_size=12, max_size=12),
    reverse=st.booleans(),
)
def test_onepass_propagate_both_ways(crossover, graph, seed_positions, seed_widths, reverse):
    csr = graph.csr()
    assert csr.edges_descend()
    seeds = {}
    for position, width in zip(seed_positions, seed_widths):
        index = position % csr.num_vertices
        seeds[index] = seeds.get(index, 0) | (1 << (width - 1)) | (width * 7919)
    with use_registry() as registry:
        got = bitset_msbfs.propagate(csr, seeds, reverse=reverse)
    if seeds:
        assert _sweep_tiers(registry) == {crossover.side}
    # The oracle: a vertex carries the OR of the seed bits of every reacher.
    expected = [0] * csr.num_vertices
    oracle_graph = _reversed(graph) if reverse else graph
    seed_ids = [csr.ids[index] for index in seeds]
    for source, target in reachable_pairs(oracle_graph, seed_ids, csr.ids):
        expected[csr.index_of(target)] |= seeds[csr.index_of(source)]
    assert got == expected


@COMMON_SETTINGS
@given(
    graph=numbered_dags(),
    source_count=st.sampled_from([0, 1, 2, 7, 8, 9, 40, 65, 130, 520, 600]),
    source_seed=st.integers(min_value=0, max_value=2**16),
    mask_seed=st.one_of(st.none(), st.just(0), st.integers(min_value=1, max_value=2**90 - 1)),
    batch_size=st.sampled_from([1, 3, 64, 512]),
    reverse=st.booleans(),
)
def test_onepass_rows_both_ways(
    crossover, graph, source_count, source_seed, mask_seed, batch_size, reverse
):
    csr = graph.csr()
    assert csr.edges_descend()
    sources = _drawn_sources(graph, source_count, source_seed)
    mask = None if mask_seed is None else mask_seed % (1 << csr.num_vertices)
    with use_registry() as registry:
        got = bitset_msbfs.set_reachability_rows(
            csr, sources, mask, batch_size=batch_size, reverse=reverse
        )
    assert _sweep_tiers(registry) <= {crossover.side}
    assert got == _oracle_rows(graph, csr, sources, mask, reverse)


#: How a drawn target mask relates to a call's distinct seed indices.
MASK_KINDS = ("none", "zero", "single", "fewer", "more")


def _drawn_mask(csr, sources, kind, seed):
    """A target mask of ``kind``; about half its targets are seed indices.

    ``fewer`` and ``more`` count bits against the call's distinct seed
    indices — the two sides the kernel chooses between.
    """
    if kind in ("none", "zero"):
        return None if kind == "none" else 0
    rng = random.Random(seed)
    n = csr.num_vertices
    seeds = sorted({csr.index_of(s) for s in sources if csr.has_vertex(s)})
    if kind == "single":
        size = 1
    elif kind == "fewer":
        size = max(1, rng.randrange(len(seeds))) if seeds else 1
    else:
        size = min(n, len(seeds) + 1 + rng.randrange(n))
    picks = set(rng.sample(seeds, min(len(seeds), size // 2)))
    others = [index for index in range(n) if index not in picks]
    picks.update(rng.sample(others, min(len(others), size - len(picks))))
    return sum(1 << index for index in picks)


def _dfs_rows(csr, sources, mask, reverse):
    """The oracle: one depth-first search per source, packed and masked."""
    step = csr.predecessors if reverse else csr.successors
    keep = (1 << csr.num_vertices) - 1 if mask is None else mask
    rows = {}
    for source in sources:
        row = 0
        if csr.has_vertex(source):
            reached, stack = {source}, [source]
            while stack:
                for succ in step(stack.pop()):
                    if succ not in reached:
                        reached.add(succ)
                        stack.append(succ)
            row = sum(1 << csr.index_of(vertex) for vertex in reached) & keep
        rows[source] = row
    return rows


@COMMON_SETTINGS
@given(
    graph=numbered_dags(),
    source_count=st.sampled_from([1, 2, 3, 7, 9, 40, 130]),
    source_seed=st.integers(min_value=0, max_value=2**16),
    mask_kind=st.sampled_from(MASK_KINDS),
    batch_size=st.sampled_from([1, 2, 5, 512]),
    reverse=st.booleans(),
)
def test_rows_from_either_side_match_a_dfs_per_source(
    crossover, graph, source_count, source_seed, mask_kind, batch_size, reverse
):
    # The kernel seeds whichever side is smaller and sweeps only between
    # the seeds and the targets; neither choice may show in a row.
    csr = graph.csr()
    sources = _drawn_sources(graph, source_count, source_seed)
    # A target id as a source too: a source covered by the mask reaches itself.
    sources.append(csr.ids[source_seed % csr.num_vertices])
    mask = _drawn_mask(csr, sources, mask_kind, source_seed)
    got = bitset_msbfs.set_reachability_rows(
        csr, sources, mask, batch_size=batch_size, reverse=reverse
    )
    assert got == _dfs_rows(csr, sources, mask, reverse)


#: The public sweep entry points, each called on a spoiled snapshot.
ENTRY_POINTS = {
    "propagate": lambda csr: bitset_msbfs.propagate(csr, {0: 1}),
    "set_reachability_rows": lambda csr: bitset_msbfs.set_reachability_rows(csr, csr.ids),
    "np_sweep_rows": lambda csr: np_sweep_rows(csr, [0], None, False, True),
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("spoiler", ["ascending-edge", "two-cycle", "self-loop"])
@COMMON_SETTINGS
@given(graph=numbered_dags(), pick=st.integers(min_value=0, max_value=10**6))
def test_unnumbered_snapshot_is_refused(entry_point, spoiler, graph, pick):
    # The spoiled graph is built as a new snapshot: a condensation is
    # immutable, so its edges are copied and the spoiler added to the copy.
    edges = list(graph.edges())
    ids = sorted(graph.vertices())
    if spoiler == "self-loop":
        vertex = ids[pick % len(ids)]
        edges.append((vertex, vertex))
    else:
        if len(ids) < 2:
            ids.append(ids[-1] + 1)
        low = pick % (len(ids) - 1)
        high = low + 1 + (pick // len(ids)) % (len(ids) - 1 - low)
        edges.append((ids[low], ids[high]))
        if spoiler == "two-cycle":
            edges.append((ids[high], ids[low]))
    csr = CSRGraph.from_edges(ids, edges)
    assert not csr.edges_descend()
    with pytest.raises(ValueError, match="topologically numbered"):
        ENTRY_POINTS[entry_point](csr)


# ---------------------------------------------------------------------- #
# partition summaries over cyclic local graphs
# ---------------------------------------------------------------------- #
@st.composite
def partitioned_cyclic_graphs(draw):
    """A random graph with self-loops and 2-cycles, split into 2-4 parts."""
    size = draw(st.integers(min_value=2, max_value=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    graph = DiGraph()
    for vertex in range(size):
        graph.add_vertex(vertex)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * size))):
        u, v = rng.randrange(size), rng.randrange(size)
        graph.add_edge(u, v)
        if rng.random() < 0.15:
            graph.add_edge(v, u)
        if rng.random() < 0.1:
            graph.add_edge(u, u)
    num_partitions = draw(st.integers(min_value=2, max_value=4))
    assignment = {vertex: rng.randrange(num_partitions) for vertex in range(size)}
    return GraphPartitioning(graph, assignment, num_partitions)


@COMMON_SETTINGS
@given(partitioning=partitioned_cyclic_graphs(), use_equivalence=st.booleans())
def test_summary_contribution_reproduces_local_reach(partitioning, use_equivalence):
    for pid in range(partitioning.num_partitions):
        local = partitioning.local_subgraph(pid)
        in_b = partitioning.in_boundaries(pid)
        out_b = partitioning.out_boundaries(pid)
        summary = build_partition_summary(
            pid, local, in_b, out_b, use_equivalence=use_equivalence
        )
        vertices, edges = summary.graph_contribution()
        # Class ids are negative, which a DiGraph refuses; a snapshot reads alike.
        contribution = CSRGraph.from_edges(vertices, edges)
        # Without equivalence only the I ⇝ O pairs are stored (Definition 4).
        targets = (in_b | out_b) if use_equivalence else out_b
        expected = {pair for pair in reachable_pairs(local, in_b, targets) if pair[0] != pair[1]}
        got = {
            pair for pair in reachable_pairs(contribution, in_b, targets) if pair[0] != pair[1]
        }
        assert got == expected
