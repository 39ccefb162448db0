"""Partition summaries are frozen: the same classes and edges, digest for digest.

A summary is what every other partition imports (its classes, its
``class_edges`` and ``member_edges``), so how it is computed may change but
what it says may not.  The digests below name classes canonically (see
:func:`summary_digest`) and were recorded with every dirty partition
re-summarised on every flush; a flush that re-summarises only the
partitions whose summary can change must reproduce them exactly — at index
build and after three seeded flushes — on the spine's two graph shapes: a
numbered DAG (every component a singleton) and an SCC-rich web graph — with
every size-picked kernel call on its python loop and on numpy (the
``crossover`` fixture).
"""

import hashlib
import random

import pytest

from repro.api import DSRConfig, open_engine
from repro.graph import generators

GRAPHS = {
    "dag": lambda: generators.dag(2000, 8000, seed=0),
    "web": lambda: generators.web_graph(1000, 5.5, seed=0),
}

#: ``(graph, use_equivalence)`` -> one digest per epoch: build, then 3 flushes.
EXPECTED = {
    ("dag", True): (
        "965bc8e9cc5f48868064a3f86105e856cdba1d5cc9b6edfd586f46c94fbaf4cf",
        "487faf1d03f972f8d9d96a7ad58b7e0ba866f8c2928073728c579c15ac3efa75",
        "08f1600074907edaed6c739ea9138bf0223f0df7686bc0f59d71f3ef7e0e0a24",
        "ecf1d8120496473f31fadf7812fd3eaf9de92308cdad2c4df382743928687309",
    ),
    ("dag", False): (
        "ccc3fdf6cbe4e821149d73d3ed02d368fe0f77d33650c7f32fe97b299765199b",
        "32453d96bf8cf64b65c5eb1b8296f8dd0baf5193b16a5bf5cc911f0480c4f14e",
        "4b8f257570933d0144720422f76b62a4fdef969ca2093932ef32abd18b70c30a",
        "2308fa0fc0edb879ce04c8f4b3ae6e3335beb2dd1e8ad8f60703811702eb46d8",
    ),
    ("web", True): (
        "24d4be168ef3ddd8eae10fec31efeb2a9653f8fe56c3fc37562094618272412e",
        "e7e81cc4e53c7cad9c589a96f3cef9b805a14dc1fb9989e433e4fcaa0ffd38f5",
        "e094b551207920d1448f8bc69943f163c00a7c180d7145fd73121fb0f04f45a8",
        "e094b551207920d1448f8bc69943f163c00a7c180d7145fd73121fb0f04f45a8",
    ),
    ("web", False): (
        "8963b7a9bed17e484601b8a0c636535800e4e73046feb1f91ea3c473af8d10e5",
        "bd7c29c2364018a055f83216d695fd709da81751ad705b0891e552ab911d0274",
        "4beb8337f4a55719ddd98cdcd9328573fc9f11a4999cfa2680561517888b3e3a",
        "4beb8337f4a55719ddd98cdcd9328573fc9f11a4999cfa2680561517888b3e3a",
    ),
}


def summary_digest(summaries) -> str:
    """sha256 over every partition's classes, class edges and member edges.

    A class is named by ``(kind, representative)``, not by its id: ids are
    handed out afresh on every re-summarise, so which partitions a flush
    re-summarises shifts later ids while what the summaries say stays the
    same.
    """
    lines = []
    for pid in sorted(summaries):
        summary = summaries[pid]
        classes = list(summary.forward_classes) + list(summary.backward_classes)
        names = {cls.class_id: (cls.kind, cls.representative) for cls in classes}

        def name(vertex):
            return names.get(vertex, ("vertex", vertex))

        lines.append(f"partition {pid}")
        for cls in classes:
            lines.append(f"class {names[cls.class_id]} {sorted(cls.members)}")
        for label, edges in (
            ("class_edges", summary.class_edges),
            ("member_edges", summary.member_edges),
        ):
            lines.append(f"{label} {sorted((name(a), name(b)) for a, b in edges)}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def epoch_digests(graph_name, use_equivalence):
    engine = open_engine(
        GRAPHS[graph_name](),
        DSRConfig(
            num_partitions=4,
            partitioner="metis",
            use_equivalence=use_equivalence,
            seed=0,
        ),
    )
    rng = random.Random(0)
    try:
        digests = [summary_digest(engine.index.summaries)]
        for _ in range(3):
            edges = sorted(engine.graph.edges())
            for u, v in rng.sample(edges, 2):
                engine.delete_edge(u, v)
            vertices = sorted(engine.graph.vertices())
            for _ in range(2):
                u, v = rng.sample(vertices, 2)
                engine.insert_edge(u, v)
            engine.flush_updates()
            digests.append(summary_digest(engine.index.summaries))
        return tuple(digests)
    finally:
        engine.close()


@pytest.mark.parametrize("use_equivalence", [True, False], ids=["eq", "plain"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_summaries_match_the_recorded_digests(graph_name, use_equivalence, crossover):
    assert epoch_digests(graph_name, use_equivalence) == EXPECTED[
        (graph_name, use_equivalence)
    ]
