"""Partition summaries are frozen: the same classes and edges, digest for digest.

A summary is what every other partition imports (its classes, its
``class_edges`` and ``member_edges``), so how it is computed may change but
what it says may not.  The digests below were recorded with the summaries
built by sweeping each raw local graph; the condensation-based builders
must reproduce them exactly — at index build and after three seeded
flushes — on the spine's two graph shapes: a numbered DAG (every component
a singleton) and an SCC-rich web graph — with every size-picked kernel
call on its python loop and on numpy (the ``crossover`` fixture).
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
        "2b53b6be9f133e71b44b9d3610d83c6af1629457917fdc288311792d6037694a",
        "5381ebfb551a22adb970a15be19c3047ed5fa0d89848bb10f93504dd9ed5840d",
        "b97883b72c9d412e596907e612c31c1ea72b08842eebc7421ca6a72cd11f8d7d",
        "fedef45be47cf6f43c2079eff1bc860b474b9c3cc60205414b7888b41c31a668",
    ),
    ("dag", False): (
        "abe0ea9a4e94b13ce8691a3799bd0132226a24e067c022bf45b1ecf8c33e7e98",
        "a17c80d628472d777b9ff665557f9ba07dff31cf2829c4d26f170be789311f3c",
        "2439d006d92d61d1a3ac2be89677b19a9f244a07c93fab8ae726d0550c4fcf46",
        "840d8414feebe6d2b9228123b3195d84f7083f9ad496fa7a6b970fdc2f68f972",
    ),
    ("web", True): (
        "b56dcab246106fa6de2750618f613c66821d499b7bee5cb6e6b4f1b10dcd5aa3",
        "cd17f51cea1619ba34e5b7beaebc039a91fe73d0009cb86aff7068b75755f727",
        "b6c09f3ec4424bd9e4fd9020e643468d94d7a8de2a1d68d6e8766cb802892eb1",
        "d228be180f361fe9c62c2eafc8ba674836fddef543bb1fbed00f4126709674de",
    ),
    ("web", False): (
        "82f1fed848bb7ee8123051ba36304e90703e6226bff3a9ea07e82525a7d8ae0c",
        "e639e30ed3514ec37cb2952fbe7cf4a917deae5920c344910eb4d3e1db5ceba3",
        "8251ca6969669b5c4cfbb9d72bfbe200379c0e71cc17e3dd1689e0f5be674723",
        "8251ca6969669b5c4cfbb9d72bfbe200379c0e71cc17e3dd1689e0f5be674723",
    ),
}


def summary_digest(summaries) -> str:
    """sha256 over every partition's classes, class edges and member edges."""
    lines = []
    for pid in sorted(summaries):
        summary = summaries[pid]
        lines.append(f"partition {pid}")
        for cls in list(summary.forward_classes) + list(summary.backward_classes):
            lines.append(
                f"class {cls.class_id} {cls.kind} {cls.representative} {sorted(cls.members)}"
            )
        lines.append(f"class_edges {sorted(summary.class_edges)}")
        lines.append(f"member_edges {sorted(summary.member_edges)}")
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
