"""Command-line interface for the DSR reproduction.

The CLI exposes the most common workflows without writing any Python:

* ``repro-dsr info <dataset>`` — generate a dataset analogue and print its
  statistics (vertices, edges, cut sizes under both partitioners).
* ``repro-dsr query <dataset>`` — open any registered backend
  (``--backend dsr|giraph|giraphpp|giraphpp-eq|naive|fan``) and run a random
  set-reachability query, printing the Table-3-style measurements.
* ``repro-dsr compare <dataset>`` — run the same query through several
  approaches (DSR, Giraph variants, DSR-Fan, DSR-Naïve) and print a
  comparison table.
* ``repro-dsr sparql <suite>`` — run the paper's property-path queries (L1–L3
  or F1–F3) through the DSR-backed engine and the Virtuoso-like baseline.
* ``repro-dsr communities`` — run the community-connectedness application.
* ``repro-dsr serve <dataset>`` — build an index and run the online query
  service (planner + result cache + concurrent workers), either listening on
  a socket behind the asyncio binary-framed front door (backpressure
  watermarks, per-tenant rate limits) or driving a built-in mixed workload
  (``--self-test``).
* ``repro-dsr worker-host`` — run a standalone TCP worker host that serves
  hydrated shards to ``executor="tcp"`` engines (``--worker-hosts`` on
  ``serve``).
* ``repro-dsr stats`` — print the observability registries in Prometheus
  text form: either scraped from a running server (``--connect HOST:PORT``)
  or from a built-in demo that runs traced queries and a background epoch
  flush against a freshly built engine.

Every command accepts ``--scale`` and ``--seed`` so runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analytics.connectedness import CommunityConnectedness
from repro.api import DSRConfig, ReachQuery, available_backends, open_engine
from repro.bench.datasets import DATASETS, load_dataset
from repro.bench.reporting import format_table
from repro.bench.runner import ALL_APPROACHES, ExperimentRunner
from repro.bench.workloads import random_query
from repro.cluster.executors import EXECUTOR_NAMES
from repro.cluster.remote import WorkerHost
from repro.graph import generators
from repro.service import (
    DSRAsyncServer,
    DSRService,
    ErrorResponse,
    QueryRequest,
    UpdateRequest,
)
from repro.service.server import DSRClient
from repro.partition.partition import make_partitioning
from repro.sparql.baseline import VirtuosoLikeEngine
from repro.sparql.engine import PropertyPathEngine
from repro.sparql.freebase_like import freebase_queries, generate_freebase_triples
from repro.sparql.lubm import generate_lubm_triples, lubm_queries
from repro.sparql.rdf import TripleStore


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=7, help="random seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dsr",
        description="Distributed Set Reachability (SIGMOD 2016) reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="print dataset statistics")
    info.add_argument("dataset", choices=sorted(DATASETS))
    _add_common_arguments(info)

    query = subparsers.add_parser("query", help="run one set-reachability query")
    query.add_argument("dataset", choices=sorted(DATASETS))
    query.add_argument(
        "--backend",
        choices=sorted(available_backends()),
        default="dsr",
        help="execution strategy from the repro.api backend registry",
    )
    query.add_argument("--partitions", type=int, default=5)
    query.add_argument("--partitioner", choices=["metis", "hash"], default="metis")
    query.add_argument(
        "--local-index",
        choices=["dfs", "msbfs", "ferrari", "grail", "closure"],
        default="msbfs",
        help="local strategy of the fan and naive backends (dsr accepts only msbfs)",
    )
    query.add_argument("--sources", type=int, default=10)
    query.add_argument("--targets", type=int, default=10)
    query.add_argument("--no-equivalence", action="store_true")
    _add_common_arguments(query)

    compare = subparsers.add_parser("compare", help="compare DSR against baselines")
    compare.add_argument("dataset", choices=sorted(DATASETS))
    compare.add_argument("--partitions", type=int, default=5)
    compare.add_argument(
        "--approaches",
        default="dsr,dsr-noeq,giraph++weq,giraph++,giraph,dsr-fan",
        help="comma-separated subset of: " + ", ".join(ALL_APPROACHES),
    )
    compare.add_argument("--sources", type=int, default=10)
    compare.add_argument("--targets", type=int, default=10)
    _add_common_arguments(compare)

    sparql = subparsers.add_parser("sparql", help="run the property-path suites")
    sparql.add_argument("suite", choices=["lubm", "freebase"])
    sparql.add_argument("--slaves", type=int, default=5)
    _add_common_arguments(sparql)

    communities = subparsers.add_parser(
        "communities", help="run the community-connectedness application"
    )
    communities.add_argument("--representatives", type=int, default=10)
    communities.add_argument("--partitions", type=int, default=4)
    _add_common_arguments(communities)

    serve = subparsers.add_parser("serve", help="run the online DSR query service")
    serve.add_argument("dataset", choices=sorted(DATASETS))
    serve.add_argument("--partitions", type=int, default=5)
    serve.add_argument(
        "--backward", action="store_true",
        help="also build the mirror index so the planner can go backward",
    )
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument("--queue-depth", type=int, default=64)
    serve.add_argument("--cache-capacity", type=int, default=1024)
    serve.add_argument("--cache-ttl", type=float, default=None)
    serve.add_argument("--no-cache", action="store_true")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve.add_argument(
        "--self-test", action="store_true",
        help="drive a built-in mixed query/update workload instead of listening",
    )
    serve.add_argument(
        "--high-watermark", type=int, default=None,
        help="in-flight requests before reads pause "
        "(default: the admission queue depth)",
    )
    serve.add_argument(
        "--low-watermark", type=int, default=None,
        help="in-flight requests before paused reads resume "
        "(default: half the high watermark)",
    )
    serve.add_argument(
        "--rate-limit-qps", type=float, default=None,
        help="per-tenant token-bucket refill rate (default: off)",
    )
    serve.add_argument(
        "--rate-limit-burst", type=int, default=None,
        help="per-tenant token-bucket burst size "
        "(default: equal to the qps)",
    )
    serve.add_argument(
        "--executor", choices=sorted(EXECUTOR_NAMES), default="serial",
        help="executor backend the engine runs cluster phases on",
    )
    serve.add_argument(
        "--worker-hosts", default=None, metavar="HOST:PORT,HOST:PORT",
        help="executor=tcp only: comma-separated external worker hosts "
        "(started with `repro-dsr worker-host`); rank r maps to host r %% N",
    )
    serve.add_argument(
        "--health-interval", type=float, default=None, metavar="SECONDS",
        help="probe remote workers (processes or tcp) every SECONDS behind "
        "per-target circuit breakers (default: off; see docs/RESILIENCE.md)",
    )
    _add_common_arguments(serve)

    worker_host = subparsers.add_parser(
        "worker-host",
        help="run a standalone TCP worker host for executor=tcp engines",
    )
    worker_host.add_argument("--host", default="127.0.0.1")
    worker_host.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    worker_host.add_argument(
        "--allow-shutdown", action="store_true",
        help="let connected masters stop this host with a shutdown message",
    )

    stats = subparsers.add_parser(
        "stats", help="print the observability registries (Prometheus text)"
    )
    stats.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="scrape a running `repro-dsr serve` server instead of the demo",
    )
    stats.add_argument(
        "dataset", nargs="?", choices=sorted(DATASETS), default="amazon",
        help="dataset for the built-in demo (ignored with --connect)",
    )
    stats.add_argument("--partitions", type=int, default=4)
    stats.add_argument(
        "--executor", choices=sorted(EXECUTOR_NAMES), default="serial",
        help="executor backend the demo engine runs on",
    )
    stats.add_argument(
        "--no-trace", action="store_true",
        help="skip printing the demo query's span trace",
    )
    _add_common_arguments(stats)
    # The demo is meant to finish in seconds, so default to a small slice.
    stats.set_defaults(scale=0.2)

    return parser


# ---------------------------------------------------------------------- #
# command implementations
# ---------------------------------------------------------------------- #
def _command_info(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    spec = DATASETS[args.dataset]
    rows = []
    for strategy in ("hash", "metis"):
        partitioning = make_partitioning(graph, 5, strategy=strategy, seed=args.seed)
        summary = partitioning.summary()
        rows.append(
            {
                "partitioner": strategy,
                "cut_edges": summary["cut_edges"],
                "cut_fraction": round(summary["cut_fraction"], 3),
                "edge_balance": summary["edge_balance"],
            }
        )
    print(
        f"{spec.paper_name} analogue — {graph.num_vertices} vertices, "
        f"{graph.num_edges} edges ({spec.description})"
    )
    print(format_table(rows, title="partitioning (5 slaves)"))
    return 0


def _command_query(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = DSRConfig(
        backend=args.backend,
        num_partitions=args.partitions,
        partitioner=args.partitioner,
        local_index=args.local_index,
        use_equivalence=not args.no_equivalence,
        seed=args.seed,
    )
    engine = open_engine(graph, config)
    report = getattr(engine, "last_build_report", None)
    if report is not None:
        print(
            f"index: {report.parallel_build_seconds:.3f}s simulated-parallel build, "
            f"max compound graph {report.max_original_edges} edges "
            f"({report.max_dag_edges} condensed)"
        )
    sources, targets = random_query(graph, args.sources, args.targets, seed=args.seed)
    result = engine.run(ReachQuery(tuple(sources), tuple(targets)))
    print(
        format_table(
            [result.as_dict()],
            title=f"{args.backend} query |S|={args.sources} |T|={args.targets}",
        )
    )
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    approaches = [name.strip() for name in args.approaches.split(",") if name.strip()]
    unknown = [name for name in approaches if name not in ALL_APPROACHES]
    if unknown:
        print(f"unknown approaches: {', '.join(unknown)}", file=sys.stderr)
        return 2
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    runner = ExperimentRunner(
        graph, num_partitions=args.partitions, local_index="msbfs", seed=args.seed
    )
    sources, targets = random_query(graph, args.sources, args.targets, seed=args.seed)
    results = runner.run(approaches, sources, targets)
    print(format_table([r.as_row() for r in results], title=f"{args.dataset} comparison"))
    return 0


def _command_sparql(args: argparse.Namespace) -> int:
    store = TripleStore()
    if args.suite == "lubm":
        store.add_all(
            generate_lubm_triples(
                num_universities=max(2, int(8 * args.scale)),
                departments_per_university=6,
                groups_per_department=4,
                students_per_department=8,
                seed=args.seed,
            )
        )
        queries = lubm_queries()
    else:
        store.add_all(
            generate_freebase_triples(
                num_countries=max(2, int(4 * args.scale)),
                states_per_country=5,
                cities_per_state=6,
                people_per_city=4,
                seed=args.seed,
            )
        )
        queries = freebase_queries()

    dsr = PropertyPathEngine(store, num_slaves=args.slaves, local_index="msbfs")
    baseline = VirtuosoLikeEngine(store, warm=False)
    rows = []
    for name, text in queries.items():
        dsr.warm_up(text)
        dsr_result = dsr.execute(text)
        baseline_result = baseline.execute(text)
        rows.append(
            {
                "query": name,
                "results": dsr_result.num_results,
                "dsr_s": round(dsr_result.seconds, 4),
                "baseline_s": round(baseline_result.seconds, 4),
            }
        )
    print(format_table(rows, title=f"{args.suite}: {store.num_triples} triples"))
    return 0


def _command_communities(args: argparse.Namespace) -> int:
    graph = generators.community_graph(
        num_communities=8,
        community_size=max(20, int(60 * args.scale)),
        intra_prob=0.07,
        inter_prob=0.003,
        seed=args.seed,
    )
    analysis = CommunityConnectedness(graph, num_partitions=args.partitions, seed=args.seed)
    report = analysis.analyse(representatives=args.representatives)
    print(
        f"{analysis.communities.num_communities} communities "
        f"(modularity {analysis.communities.modularity:.3f}) over "
        f"{graph.num_vertices} vertices"
    )
    print(
        format_table(
            [
                {
                    "communities": f"{report.community_a} -> {report.community_b}",
                    "|S|x|T|": f"{report.num_sources}x{report.num_targets}",
                    "reachable_pairs": report.num_pairs,
                    "seconds": round(report.seconds, 4),
                }
            ],
            title="community connectedness",
        )
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    worker_hosts = None
    if args.worker_hosts:
        worker_hosts = [
            spec.strip() for spec in args.worker_hosts.split(",") if spec.strip()
        ]
    engine = open_engine(
        graph,
        DSRConfig(
            num_partitions=args.partitions,
            seed=args.seed,
            enable_backward=args.backward,
            executor=args.executor,
            worker_hosts=worker_hosts,
        ),
    )
    report = engine.last_build_report
    print(
        f"{args.dataset}: {graph.num_vertices} vertices, {graph.num_edges} edges — "
        f"index built in {report.parallel_build_seconds:.3f}s simulated-parallel"
    )
    service = DSRService(
        engine,
        num_workers=args.workers,
        max_queue_depth=args.queue_depth,
        cache_capacity=args.cache_capacity,
        cache_ttl_seconds=args.cache_ttl,
        enable_cache=not args.no_cache,
        health_probe_interval_seconds=args.health_interval,
    )
    if service.health is not None:
        print(
            f"health: probing {len(service.health.target_names())} target(s) "
            f"every {args.health_interval:g}s (circuit breakers)"
        )
    try:
        if args.self_test:
            return _serve_self_test(graph, service, seed=args.seed)
        server = DSRAsyncServer(
            service,
            host=args.host,
            port=args.port,
            high_watermark=args.high_watermark,
            low_watermark=args.low_watermark,
            rate_limit_qps=args.rate_limit_qps,
            rate_limit_burst=args.rate_limit_burst,
        )
        server.start_in_thread()
        host, port = server.address
        print(
            f"serving (binary frames) on {host}:{port} with {args.workers} "
            f"workers (cache {'off' if args.no_cache else 'on'}) — "
            f"watermarks {server.low_watermark}/{server.high_watermark}, "
            f"rate limit {server.rate_limit_qps or 'off'} qps — Ctrl-C to stop",
            flush=True,
        )
        try:
            server.wait()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop_from_thread()
        print(format_table([_stats_row(service)], title="serving metrics"))
        _print_health(service)
        return 0
    finally:
        service.close()


def _print_health(service: DSRService) -> None:
    """Print the supervisor's per-target breaker table (when enabled)."""
    if service.health is None:
        return
    rows = [
        {
            "target": name,
            "state": target["state"],
            "fails": target["consecutive_failures"],
            "opens": target["opens"],
        }
        for name, target in sorted(service.health.stats()["targets"].items())
    ]
    if rows:
        print(format_table(rows, title="health"))


def _stats_row(service: DSRService) -> dict:
    stats = service.stats()
    return {
        "requests": stats.get("requests", 0),
        "queries": stats.get("queries", 0),
        "hit_rate": stats.get("cache_hit_rate", 0.0),
        "p50_ms": stats.get("query_p50_ms", 0.0),
        "p95_ms": stats.get("query_p95_ms", 0.0),
        "rps": stats.get("requests_per_second", 0.0),
    }


def _serve_self_test(graph, service: DSRService, seed: int) -> int:
    """Drive a mixed query/update workload through the service in-process."""
    from repro.graph.traversal import reachable_pairs

    query_pool = [
        random_query(graph, 8, 8, seed=seed + wave) for wave in range(6)
    ]
    # Wave 1: queries only (populates the cache, repeats hit it).
    futures = []
    for repeat in range(3):
        for sources, targets in query_pool:
            futures.append(service.submit(QueryRequest(tuple(sources), tuple(targets))))
    for future in futures:
        response = future.result()
        if isinstance(response, ErrorResponse):
            print(f"self-test query failed: {response.message}", file=sys.stderr)
            return 1
    # Wave 2: structural updates followed by re-queries; answers must match
    # a direct traversal of the updated graph.
    vertices = sorted(graph.vertices())
    for update in (
        UpdateRequest("insert-edge", vertices[0], vertices[-1]),
        UpdateRequest("delete-edge", *next(iter(graph.edges()))),
    ):
        response = service.submit(update).result()
        if isinstance(response, ErrorResponse):
            print(f"self-test update failed: {response.message}", file=sys.stderr)
            return 1
    for sources, targets in query_pool:
        response = service.submit(
            QueryRequest(tuple(sources), tuple(targets))
        ).result()
        if isinstance(response, ErrorResponse):
            print(f"self-test query failed: {response.message}", file=sys.stderr)
            return 1
        expected = reachable_pairs(graph, sources, targets)
        if response.pair_set != expected:
            print("self-test FAILED: stale answer after updates", file=sys.stderr)
            return 1
    print("self-test passed: answers stayed exact across cache + updates")
    print(format_table([_stats_row(service)], title="serving metrics"))
    return 0


def _command_worker_host(args: argparse.Namespace) -> int:
    host = WorkerHost(
        host=args.host, port=args.port, allow_shutdown=args.allow_shutdown
    )
    bind_host, bind_port = host.address
    print(
        f"worker host listening on {bind_host}:{bind_port} — point an "
        f"executor='tcp' engine at it via worker_hosts=['{bind_host}:{bind_port}']"
    )
    try:
        host.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        host.stop()
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            print(f"--connect expects HOST:PORT, got {args.connect!r}", file=sys.stderr)
            return 2
        with DSRClient(host, int(port)) as client:
            response = client.metrics()
        if isinstance(response, ErrorResponse):
            print(f"metrics request failed: {response.message}", file=sys.stderr)
            return 1
        print(response.text, end="")
        return 0

    # Built-in demo: traced queries + updates + a background epoch flush
    # against a small engine, then the combined registries.
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    engine = open_engine(
        graph,
        DSRConfig(
            num_partitions=args.partitions,
            local_index="msbfs",
            seed=args.seed,
            executor=args.executor,
            epoch_flush="background",
        ),
    )
    service = DSRService(engine, num_workers=2)
    try:
        sources, targets = random_query(graph, 8, 8, seed=args.seed)
        response = service.handle(
            QueryRequest(tuple(sources), tuple(targets), trace=True)
        )
        if isinstance(response, ErrorResponse):
            print(f"demo query failed: {response.message}", file=sys.stderr)
            return 1
        # Cross-partition inserts are always structural, so the background
        # maintainer is guaranteed to run a real flush before the scrape.
        partition_of = engine.partitioning.partition_of
        by_partition = {}
        for vertex in sorted(graph.vertices()):
            by_partition.setdefault(partition_of(vertex), []).append(vertex)
        first, second = (by_partition[pid] for pid in sorted(by_partition)[:2])
        inserted = 0
        for u in first:
            for v in second:
                if inserted >= 3:
                    break
                if not graph.has_edge(u, v):
                    service.handle(UpdateRequest("insert-edge", u, v))
                    inserted += 1
            if inserted >= 3:
                break
        if not engine.wait_for_maintenance(timeout=30.0):
            print("background flush did not finish in time", file=sys.stderr)
            return 1
        # One more query so post-flush epoch metrics carry a query alongside.
        service.handle(QueryRequest(tuple(sources), tuple(targets), use_cache=False))
        if not args.no_trace and response.trace:
            rows = [
                {
                    "span": span["name"],
                    "ms": round(span["seconds"] * 1000.0, 3),
                    "attrs": ", ".join(
                        f"{key}={value}" for key, value in sorted(span["attrs"].items())
                    ),
                }
                for span in response.trace["spans"]
            ]
            print(format_table(rows, title="demo query trace"))
        print(service.metrics_text(), end="")
        return 0
    finally:
        service.close()
        engine.close()


_COMMANDS = {
    "info": _command_info,
    "query": _command_query,
    "compare": _command_compare,
    "sparql": _command_sparql,
    "communities": _command_communities,
    "serve": _command_serve,
    "worker-host": _command_worker_host,
    "stats": _command_stats,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
