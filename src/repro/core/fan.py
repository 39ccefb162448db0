"""DSR-Fan: set reachability with a dynamic dependency graph (Section 3.2).

This is the generalisation of Fan et al.'s distributed reachability algorithm
[9] to sets of sources and targets, used by the paper as its strongest
non-indexed baseline:

1. the master partitions ``S ⇝ T`` into per-partition subqueries;
2. every slave evaluates, over its *local* subgraph only, the reachability
   from ``S_i ∪ I_i`` to ``O_i ∪ T_i`` (the Boolean-formula encoding of the
   paper reduces to this set of reachable pairs);
3. all partial results are shipped to the master, which assembles the
   query-specific *dependency graph* — partial pairs plus the static cut —
   and runs a plain set-reachability search over it.

The dependency graph is rebuilt from scratch for every query, which is exactly
the inefficiency the static DSR index removes; its size is reported in
Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.cluster.cluster import SimulatedCluster
from repro.core.query import QueryResult
from repro.graph.digraph import DiGraph
from repro.partition.partition import GraphPartitioning
from repro.reachability.factory import make_reachability_index


@dataclass
class FanQueryResult(QueryResult):
    """Adds the dynamic dependency-graph size to the standard result."""

    dependency_graph_edges: int = 0
    dependency_graph_vertices: int = 0


class DSRFan:
    """Dynamic-dependency-graph evaluation of DSR queries."""

    def __init__(
        self,
        partitioning: GraphPartitioning,
        local_strategy: str = "msbfs",
        cluster: Optional[SimulatedCluster] = None,
    ) -> None:
        self.partitioning = partitioning
        self.local_strategy = local_strategy
        self.cluster = cluster or SimulatedCluster(partitioning.num_partitions)
        self.local_subgraphs: Dict[int, DiGraph] = {
            pid: partitioning.local_subgraph(pid)
            for pid in range(partitioning.num_partitions)
        }
        self.last_dependency_edges = 0

    # ------------------------------------------------------------------ #
    def query(self, sources: Iterable[int], targets: Iterable[int]) -> FanQueryResult:
        source_set = set(sources)
        target_set = set(targets)
        self.cluster.reset_stats()
        per_partition = self.partitioning.split_query(source_set, target_set)

        # Step 1: local evaluation of (S_i ∪ I_i) ⇝ (O_i ∪ T_i) at every slave.
        def local_eval(rank: int) -> Set[Tuple[int, int]]:
            local_graph = self.local_subgraphs[rank]
            local_sources, local_targets = per_partition.get(rank, (set(), set()))
            from_set = (local_sources | self.partitioning.in_boundaries(rank)) & set(
                local_graph.vertices()
            )
            to_set = (local_targets | self.partitioning.out_boundaries(rank)) & set(
                local_graph.vertices()
            )
            if not from_set or not to_set:
                return set()
            index = make_reachability_index(self.local_strategy, local_graph)
            pairs = set()
            for source, reached in index.set_reachability(from_set, to_set).items():
                for target in reached:
                    if source != target:
                        pairs.add((source, target))
            return pairs

        partial = self.cluster.run_phase("local", local_eval)

        # Step 2: ship every partial result to the master.
        for rank, pairs in partial.items():
            self.cluster.send(rank, SimulatedCluster.MASTER_RANK, sorted(pairs), tag="partial")
        self.cluster.complete_round()
        self.cluster.deliver(SimulatedCluster.MASTER_RANK)

        # Step 3: the master assembles the dependency graph and evaluates it.
        def master_eval() -> Tuple[Set[Tuple[int, int]], int, int]:
            dependency = DiGraph()
            for vertex in source_set | target_set:
                dependency.add_vertex(vertex)
            for pairs in partial.values():
                for u, v in pairs:
                    dependency.add_edge(u, v)
            for u, v in self.partitioning.cut_edges():
                dependency.add_edge(u, v)
            index = make_reachability_index(self.local_strategy, dependency)
            result_pairs = set()
            for source, reached in index.set_reachability(source_set, target_set).items():
                for target in reached:
                    result_pairs.add((source, target))
            return result_pairs, dependency.num_edges, dependency.num_vertices

        pairs, dep_edges, dep_vertices = self.cluster.run_master("master", master_eval)
        self.last_dependency_edges = dep_edges

        snapshot = self.cluster.snapshot()
        return FanQueryResult(
            pairs=pairs,
            parallel_seconds=snapshot["parallel_seconds"],
            total_seconds=snapshot["total_seconds"],
            messages_sent=snapshot["messages_sent"],
            bytes_sent=snapshot["bytes_sent"],
            rounds=snapshot["rounds"],
            per_phase_seconds=snapshot["phases"],
            dependency_graph_edges=dep_edges,
            dependency_graph_vertices=dep_vertices,
        )

    def reachable(self, source: int, target: int) -> bool:
        return (source, target) in self.query([source], [target]).pairs
