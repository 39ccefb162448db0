#!/usr/bin/env python
"""Online service demo: plan, cache and serve DSR queries under updates.

Walks through the serving layer on top of the batch engine:

1. build a DSR index over a synthetic web graph;
2. wrap it in a :class:`DSRService` (planner + result cache + worker pool);
3. fire a hot query workload through the admission queue and watch the
   cache hit rate climb;
4. apply incremental updates — the cache invalidates itself precisely, so
   answers stay exact;
5. talk to the very same service over a local socket (binary frames).

Run with:  python examples/service_demo.py
"""

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.bench.reporting import format_table
from repro.bench.workloads import random_query
from repro.graph import generators
from repro.service import (
    DSRAsyncServer,
    DSRClient,
    DSRService,
    StatsRequest,
    UpdateRequest,
)


def main() -> None:
    print("=== Distributed Set Reachability: online query service ===\n")

    # 1. Data graph + index.  The backward index lets an "auto" query start
    # from the smaller side: backward iff it names fewer distinct targets
    # than distinct sources (the engine's one direction rule).
    graph = generators.web_graph(num_vertices=1200, avg_degree=6, seed=11)
    engine = open_engine(
        graph,
        DSRConfig(num_partitions=4, local_index="msbfs", enable_backward=True),
    )
    print(f"data graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    # 2. The service: 4 workers, LRU cache of 512 exact answers.
    service = DSRService(engine, num_workers=4, cache_capacity=512)

    # 3. A hot workload: 5 distinct queries, each asked 8 times.  The service
    # accepts the same ReachQuery object the engine itself answers.
    pool = [random_query(graph, 10, 10, seed=seed) for seed in range(5)]
    futures = [
        service.submit(ReachQuery(tuple(sources), tuple(targets)))
        for _ in range(8)
        for sources, targets in pool
    ]
    answered = [future.result() for future in futures]
    hits = sum(1 for response in answered if response.cached)
    print(f"\nhot workload: {len(answered)} requests, {hits} served from cache")
    chosen = {response.direction for response in answered}
    print(f"planner directions used: {sorted(chosen)}")

    # 4. Updates invalidate precisely; answers stay exact.  Deleting an edge
    # is always a structural change, so the cache must go cold.
    removed = next(iter(graph.edges()))
    service.submit(UpdateRequest("delete-edge", *removed)).result()
    response = service.submit(
        ReachQuery(tuple(pool[0][0]), tuple(pool[0][1]))
    ).result()
    print(f"\nafter delete-edge: cached={response.cached} (cache was invalidated)")

    stats = service.handle(StatsRequest()).stats
    print(
        format_table(
            [
                {
                    "queries": stats["queries"],
                    "hit_rate": stats["cache_hit_rate"],
                    "p50_ms": stats.get("query_p50_ms", 0.0),
                    "p95_ms": stats.get("query_p95_ms", 0.0),
                    "messages": stats["messages_sent"],
                }
            ],
            title="serving metrics",
        )
    )

    # 5. The same service over a local socket.
    with DSRAsyncServer(service) as server:
        host, port = server.address
        print(f"\nsocket server on {host}:{port}")
        with DSRClient(host, port) as client:
            remote = client.query(pool[0][0], pool[0][1])
            print(
                f"remote query over binary frames: {len(remote.pairs)} pairs, "
                f"cached={remote.cached}"
            )
    service.close()


if __name__ == "__main__":
    main()
