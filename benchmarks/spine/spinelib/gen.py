"""Generated inputs: the graph, the request stream and the update script.

The graph is a fixed dataset (``spec.GRAPH_SEED``); the traffic is derived
from ``--seed`` here and nowhere else, and two calls with the same seed
return equal objects.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.graph import generators
from repro.graph.digraph import DiGraph

from spinelib.spec import GRAPH_SEED, UPDATES_PER_CYCLE, Workload

Query = Tuple[Tuple[int, ...], Tuple[int, ...]]
Update = Tuple[str, int, int]


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs.

    ``queries`` are the distinct queries; ``stream`` indexes into them, one
    entry per request in sending order (warm-up first).  ``fresh`` holds one
    never-cached query per write cycle (also indexes into ``queries``).
    """

    queries: Tuple[Query, ...]
    stream: Tuple[int, ...]
    fresh: Tuple[int, ...]
    updates: Tuple[Update, ...]


def make_graph(workload: Workload) -> DiGraph:
    kind, *args = workload.graph
    return getattr(generators, kind)(*args, seed=GRAPH_SEED)


def stream_length(workload: Workload) -> int:
    return (
        workload.warmup + workload.closed1 + workload.closed2 + workload.open_n
        + workload.cycles * workload.reads_per_cycle
    )


def _zipf_cum_weights(size: int, exponent: float) -> List[float]:
    return list(itertools.accumulate((rank + 1) ** -exponent for rank in range(size)))


def make_updates(graph: DiGraph, count: int, rng: random.Random) -> Tuple[Update, ...]:
    """``count`` updates, delete-edge / insert-edge alternating, all valid.

    Deletes pick a live edge, inserts a vertex pair that is not an edge at
    that point of the script, so no update is a no-op or an error.
    """
    vertices = sorted(graph.vertices())
    edges = sorted(graph.edges())
    live = set(edges)
    script: List[Update] = []
    for step in range(count):
        if step % 2 == 0:
            slot = rng.randrange(len(edges))
            edges[slot], edges[-1] = edges[-1], edges[slot]
            u, v = edges.pop()
            live.discard((u, v))
            script.append(("delete-edge", u, v))
        else:
            while True:
                u, v = rng.sample(vertices, 2)
                if (u, v) not in live:
                    break
            live.add((u, v))
            edges.append((u, v))
            script.append(("insert-edge", u, v))
    return tuple(script)


def make_inputs(workload: Workload, graph: DiGraph, seed: int) -> Inputs:
    rng = random.Random(f"spine/{workload.name}/{seed}")
    vertices = sorted(graph.vertices())
    length = stream_length(workload)
    distinct = workload.pool or length

    def one_query() -> Query:
        return (
            tuple(rng.sample(vertices, workload.set_size)),
            tuple(rng.sample(vertices, workload.set_size)),
        )

    queries = [one_query() for _ in range(distinct)]
    if not workload.pool:
        stream = list(range(length))
    elif workload.zipf_s:
        weights = _zipf_cum_weights(workload.pool, workload.zipf_s)
        stream = rng.choices(range(workload.pool), cum_weights=weights, k=length)
    else:
        stream = [rng.randrange(workload.pool) for _ in range(length)]
    fresh = []
    for _ in range(workload.cycles):
        fresh.append(len(queries))
        queries.append(one_query())
    updates = make_updates(graph, workload.cycles * UPDATES_PER_CYCLE, rng)
    return Inputs(tuple(queries), tuple(stream), tuple(fresh), updates)


def apply_update(graph: DiGraph, update: Update) -> None:
    """Mirror one update onto the oracle's shadow graph."""
    op, u, v = update
    if op == "delete-edge":
        graph.remove_edge(u, v)
    else:
        graph.add_edge(u, v)
