"""Differential harness: one random scenario, every configuration axis.

Each seed expands into a full *scenario* — a random graph, an interleaved
update/query script — which is then replayed across the whole matrix: every
kernel call on its python loop or on numpy (the ``crossover`` fixture) ×
``executor=serial/processes``.
Every cell must produce, at every step of the script, exactly the pair sets
of the oracle (``reachable_pairs`` on a shadow graph that mirrors the
script) — the independent reference; kernels and executors are
implementation details that are not allowed to show through.

Two scenario families: a sparse random digraph under the default (metis)
partitioning, and an SCC-rich web graph under hash partitioning — a bad cut
that scatters every SCC over all partitions, so boundary summaries are
dominated by groups of mutually reachable overlap vertices — whose script
deletes edges that split an SCC, inserts edges that merge two, and ends on
a local insert between vertices connected only through *other* partitions
followed by the remote delete that makes the new local path the only one.

The executor axis honours ``REPRO_TEST_EXECUTORS`` (same contract as
``tests/core/test_packed_pipeline.py``).  Process workers are forked, so
they inherit the crossover side the test forced.
"""

import os
import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.graph.scc import strongly_connected_components
from repro.graph.traversal import is_reachable, reachable_pairs
from repro.partition.hash_partitioner import hash_partition

EXECUTORS = tuple(
    name.strip()
    for name in os.environ.get(
        "REPRO_TEST_EXECUTORS", "serial,processes"
    ).split(",")
    if name.strip()
)

#: Scenario seeds.  Every executor runs the first seed of each family; the
#: (spawn-heavy) processes executor is limited to it, the in-process
#: executors run all.
SEEDS = (71, 72, 73)
SCC_SEEDS = (81, 84)


def _queries(rng, vertices, count):
    return [
        (
            "query",
            tuple(rng.sample(vertices, min(8, len(vertices)))),
            tuple(rng.sample(vertices, min(8, len(vertices)))),
        )
        for _ in range(count)
    ]


def _build_scenario(seed):
    """One reproducible scenario: ``(graph, script, partitioner)``.

    The script interleaves structural updates (edge deletes/inserts, a
    vertex insert) with query batches, so parity is checked across epoch
    flushes and the sanctioned in-place edits, not just the initial build.
    """
    rng = random.Random(seed)
    n = rng.randrange(40, 80)
    m = rng.randrange(2 * n, 4 * n)
    graph = generators.random_digraph(n, m, seed=seed)
    vertices = sorted(graph.vertices())
    edges = list(graph.edges())
    rng.shuffle(edges)

    script = []
    script += _queries(rng, vertices, 3)
    for u, v in edges[:4]:
        script.append(("delete_edge", u, v))
    script += _queries(rng, vertices, 2)
    # Class ids count up from max(vertices) + 1, and an insert naming one is
    # refused; the new vertex takes an id far above any class's.
    fresh = max(vertices) + 10**6
    script.append(("insert_vertex", fresh))
    for u, v in edges[4:7]:
        script.append(("insert_edge", u, v))
    script.append(("insert_edge", fresh, vertices[0]))
    script += _queries(rng, vertices, 3)
    return graph, script, "metis"


def _component_of(graph):
    return {
        vertex: index
        for index, members in enumerate(strongly_connected_components(graph))
        for vertex in members
    }


def _build_scc_scenario(seed):
    """SCC-rich graph, bad cut: ``(graph, script, partitioner)``.

    Every delete of the script splits an SCC of the graph as it stands when
    the delete is applied, every insert merges two; queries run before,
    between and after, so each kind of change is answered across its flush.
    The script ends with :func:`_remote_only_scc_insert`.
    """
    rng = random.Random(seed)
    graph = generators.web_graph(60, avg_degree=2.0, seed=seed)
    vertices = sorted(graph.vertices())
    shadow = graph.copy()

    splits = []
    edges = sorted(shadow.edges())
    rng.shuffle(edges)
    for u, v in edges:
        component = _component_of(shadow)
        if component[u] != component[v]:
            continue
        shadow.remove_edge(u, v)
        component = _component_of(shadow)
        if component[u] == component[v]:
            shadow.add_edge(u, v)  # the SCC survives this delete: not a split
            continue
        splits.append(("delete_edge", u, v))
        if len(splits) == 3:
            break

    merges = []
    pairs = [(a, b) for a in vertices for b in vertices if a != b]
    rng.shuffle(pairs)
    for a, b in pairs:
        # a reaches b but not back: the edge b -> a closes a cycle through
        # both SCCs (and everything between them).
        if is_reachable(shadow, a, b) and not is_reachable(shadow, b, a):
            shadow.add_edge(b, a)
            merges.append(("insert_edge", b, a))
            if len(merges) == 3:
                break
    assert len(splits) == 3 and len(merges) == 3, "scenario graph too uniform"

    script = _queries(rng, vertices, 3)
    script += splits
    script += _queries(rng, vertices, 3)
    script += merges
    script += _queries(rng, vertices, 3)
    script += _remote_only_scc_insert(shadow, rng, hash_partition(graph, 3).assignment)
    script += _queries(rng, vertices, 2)
    return graph, script, "hash"


def _remote_only_scc_insert(shadow, rng, home):
    """``[insert u -> v, delete a -> b, query x ⇝ y]`` over ``shadow``.

    ``home`` is the vertex → partition assignment the engines will use.
    ``u`` and ``v`` share a partition and an SCC but ``u ⇝ v`` does not
    hold inside that partition: the insert looks non-structural on the
    compound graph yet gives the partition a local path its summary must
    report.  ``a -> b`` is local to another partition and cuts every other
    ``u ⇝ v`` path, after which ``x ⇝ y`` (both outside ``u``'s partition)
    holds only through the inserted edge.
    """
    vertices = sorted(home)
    component = _component_of(shadow)
    pairs = [
        (u, v)
        for u in vertices
        for v in vertices
        if u != v and home[u] == home[v] and component[u] == component[v]
    ]
    rng.shuffle(pairs)
    edges = sorted(shadow.edges())
    rng.shuffle(edges)
    for u, v in pairs:
        local = shadow.induced_subgraph(w for w in vertices if home[w] == home[u])
        if shadow.has_edge(u, v) or is_reachable(local, u, v):
            continue
        for a, b in edges:
            if home[a] != home[b] or home[a] == home[u]:
                continue
            after = shadow.copy()
            after.remove_edge(a, b)
            if is_reachable(after, u, v):
                continue
            outside = [w for w in vertices if home[w] != home[u]]
            needs_edge = [
                (x, y)
                for x in outside
                for y in outside
                if is_reachable(after, x, u)
                and is_reachable(after, v, y)
                and not is_reachable(after, x, y)
            ]
            if needs_edge:
                x, y = needs_edge[0]
                return [
                    ("insert_edge", u, v),
                    ("delete_edge", a, b),
                    ("query", (x,), (y,)),
                ]
    raise AssertionError("scenario graph has no remote-only SCC pair")


def _oracle(graph, script):
    """The answers of ``script`` by plain traversal on a mirrored graph."""
    shadow = graph.copy()
    answers = []
    for op in script:
        if op[0] == "query":
            answers.append(reachable_pairs(shadow, op[1], op[2]))
        elif op[0] == "delete_edge":
            shadow.remove_edge(op[1], op[2])
        elif op[0] == "insert_edge":
            shadow.add_edge(op[1], op[2])
        elif op[0] == "insert_vertex":
            shadow.add_vertex(op[1])
    return answers


def _replay(graph, script, partitioner, executor):
    """Run one matrix cell over the scenario; returns the per-query answers."""
    engine = open_engine(
        graph.copy(),
        DSRConfig(
            num_partitions=3,
            partitioner=partitioner,
            local_index="msbfs",
            executor=executor,
        ),
    )
    answers = []
    try:
        for op in script:
            if op[0] == "query":
                _, sources, targets = op
                answers.append(engine.run(ReachQuery(sources, targets)).pairs)
            elif op[0] == "delete_edge":
                engine.delete_edge(op[1], op[2])
            elif op[0] == "insert_edge":
                engine.insert_edge(op[1], op[2])
            elif op[0] == "insert_vertex":
                engine.insert_vertex(vertex=op[1])
            else:  # pragma: no cover - script bug
                raise AssertionError(f"unknown op {op!r}")
    finally:
        engine.close()
    return answers


def _assert_matrix_parity(graph, script, partitioner, with_processes, side):
    executors = EXECUTORS if with_processes else tuple(
        name for name in EXECUTORS if name != "processes"
    )
    if not executors:
        pytest.skip("no executors selected via REPRO_TEST_EXECUTORS")
    reference = _oracle(graph, script)
    for executor in executors:
        answers = _replay(graph, script, partitioner, executor)
        assert answers == reference, (
            f"{side} side, executor={executor} diverges from the oracle"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_full_matrix_parity(seed, crossover):
    _assert_matrix_parity(
        *_build_scenario(seed), with_processes=seed == SEEDS[0], side=crossover.side
    )


@pytest.mark.parametrize("seed", SCC_SEEDS)
def test_scc_rich_bad_cut_matrix_parity(seed, crossover):
    _assert_matrix_parity(
        *_build_scc_scenario(seed),
        with_processes=seed == SCC_SEEDS[0],
        side=crossover.side,
    )
