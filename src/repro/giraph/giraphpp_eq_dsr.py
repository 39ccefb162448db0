"""DSR on Giraph++ with the equivalence-set optimisation (Appendix 8.4.3).

The paper prepares the input graph for this variant by attaching, to every
boundary-crossing edge, the *in-virtual vertex* (forward-equivalence class) of
the target boundary.  During the BSP computation, newly learnt sources are
then sent once per equivalence class instead of once per boundary neighbour;
the receiving partition expands the class back to its member vertices before
the local propagation.  This reduces the number and volume of network messages
(Figure 8) while leaving the superstep structure of Giraph++ unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.core.equivalence import EquivalenceClass, compute_forward_classes
from repro.core.query import QueryResult
from repro.giraph.giraphpp_dsr import GiraphPlusPlusDSR
from repro.giraph.pregel import PartitionCentricEngine, PregelStats
from repro.graph.digraph import DiGraph
from repro.partition.partition import GraphPartitioning


class GiraphPlusPlusEqDSR(GiraphPlusPlusDSR):
    """Giraph++ DSR with class-addressed boundary messages."""

    def __init__(
        self,
        graph: DiGraph,
        partitioning: GraphPartitioning,
        max_supersteps: int = 10_000,
    ) -> None:
        super().__init__(graph, partitioning, max_supersteps=max_supersteps)
        self._prepare_equivalence()

    # ------------------------------------------------------------------ #
    def _prepare_equivalence(self) -> None:
        """Precompute forward classes and the per-edge class routing."""
        self._class_members: Dict[int, Tuple[int, ...]] = {}
        # member boundary vertex -> class id (per its home partition)
        member_to_class: Dict[int, int] = {}

        for pid in range(self.partitioning.num_partitions):
            local_graph = self.partitioning.local_subgraph(pid)
            in_boundaries = self.partitioning.in_boundaries(pid)
            out_boundaries = self.partitioning.out_boundaries(pid)
            classes: List[EquivalenceClass] = compute_forward_classes(
                local_graph, in_boundaries, out_boundaries, pid
            )
            for cls in classes:
                self._class_members[cls.class_id] = tuple(sorted(cls.members))
                for member in cls.members:
                    member_to_class[member] = cls.class_id

        # For every cut edge (u, v): route through v's class when it has one,
        # otherwise keep addressing the member directly (overlap boundaries).
        self._route: Dict[Tuple[int, int], int] = {}
        self._class_home: Dict[int, int] = {}
        for u, v in self.partitioning.cut_edges():
            destination = member_to_class.get(v, v)
            self._route[(u, v)] = destination
            self._class_home[destination] = self.partitioning.partition_of(v)

    # ------------------------------------------------------------------ #
    def _emit_remote(
        self,
        engine: PartitionCentricEngine,
        pid: int,
        gained: Dict[int, Set[int]],
    ) -> None:
        """Send newly gained sources once per (equivalence class, source).

        Class-level routing is bypassed for classes containing a query target:
        marking every member of a class as "reached" is harmless for onward
        propagation (the members are forward-equivalent) but would produce
        false positives if one of those members is itself a target, so those
        edges keep member-level addressing.
        """
        local_vertices = self.partitioning.vertices_of(pid)
        emitted: Set[Tuple[int, int]] = set()
        adjacency = self._csr.successor_table()
        for vertex, sources in gained.items():
            for neighbour in adjacency[vertex]:
                if neighbour in local_vertices:
                    continue
                destination = self._route[(vertex, neighbour)]
                members = self._class_members.get(destination)
                if members is not None and any(
                    member in self._current_targets for member in members
                ):
                    destination = neighbour
                for source in sources:
                    if (destination, source) in emitted:
                        continue
                    emitted.add((destination, source))
                    engine.send(vertex, destination, source)

    def query(self, sources: Iterable[int], targets: Iterable[int]) -> QueryResult:
        source_set = set(sources)
        target_set = set(targets)
        self._current_targets = target_set
        self._csr = self.graph.csr()
        self.values = {vertex: set() for vertex in self.graph.vertices()}
        engine = PartitionCentricEngine(
            self.graph, self.partitioning, max_supersteps=self.max_supersteps
        )

        def partition_of(vertex: int) -> int:
            # Class vertices live at the partition that owns their members.
            if vertex in self._class_home:
                return self._class_home[vertex]
            return self.partitioning.partition_of(vertex)

        engine.resolve_partition = partition_of

        def program(
            eng: PartitionCentricEngine, pid: int, inbox: Dict[int, List[int]]
        ) -> None:
            if eng.superstep == 0:
                seeds = {
                    vertex: {vertex}
                    for vertex in self.partitioning.vertices_of(pid)
                    if vertex in source_set
                }
            else:
                seeds = {}
                for vertex, messages in inbox.items():
                    seeds.setdefault(vertex, set()).update(messages)
            if not seeds:
                return
            gained = self._local_process(pid, seeds)
            self._emit_remote(eng, pid, gained)

        # Run a custom superstep loop because class-addressed messages must be
        # expanded to member vertices of the receiving partition.
        stats = self._run_with_class_expansion(engine, program, partition_of)
        self.last_stats = stats

        pairs: Set[Tuple[int, int]] = set()
        for target in target_set:
            for source in self.values.get(target, set()):
                pairs.add((source, target))
            if target in source_set:
                pairs.add((target, target))
        return QueryResult(
            pairs=pairs,
            messages_sent=stats.network_messages,
            bytes_sent=stats.network_bytes,
            rounds=stats.supersteps,
        )

    def _run_with_class_expansion(self, engine, program, partition_of) -> PregelStats:
        """Superstep loop that expands class-addressed messages on delivery."""
        engine.stats = PregelStats()
        engine.superstep = 0
        engine._incoming = {}
        engine._next_incoming = {}

        while engine.superstep < engine.max_supersteps:
            if engine.superstep > 0 and not engine._incoming:
                break
            engine.stats.supersteps += 1
            for pid in range(self.partitioning.num_partitions):
                inbox: Dict[int, List[int]] = {}
                for destination in list(engine._incoming):
                    if partition_of(destination) != pid:
                        continue
                    messages = engine._incoming.pop(destination)
                    if destination in self._class_members:
                        for member in self._class_members[destination]:
                            inbox.setdefault(member, []).extend(messages)
                    else:
                        inbox.setdefault(destination, []).extend(messages)
                program(engine, pid, inbox)
            engine._incoming = engine._next_incoming
            engine._next_incoming = {}
            engine.superstep += 1
        return engine.stats
