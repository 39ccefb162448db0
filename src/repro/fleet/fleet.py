"""The replica fleet: N specialised engines behind one engine-shaped facade.

:class:`ReplicaFleet` owns a set of :class:`~repro.fleet.replica.FleetReplica`
engines over the *same logical graph* — each replica holds its own physical
copy plus an identical partition assignment, so every replica answers every
query identically and only the speed differs with its local index strategy.
On top sit the two adaptive pieces:

* a :class:`~repro.fleet.router.QueryRouter` that sends each read to the
  argmin-cost replica (reads route);
* a :class:`~repro.fleet.tuner.FleetTuner` that periodically re-clusters the
  routed workload and re-specialises replicas in the background (the online
  re-tuning loop).

Updates **fan out**: every insert/delete is applied to every replica through
its own :class:`~repro.core.updates.IncrementalMaintainer`, so the replicas'
graphs never diverge.  Vertex inserts resolve the id and partition on the
primary first and replay them verbatim on the others, keeping the partition
assignments aligned — the invariant behind exact answer parity.

The fleet deliberately quacks like a :class:`~repro.core.engine.DSREngine`
(``run`` / ``reachable`` / update methods / ``epoch`` / ``maintainer`` /
``close``), so :class:`~repro.service.server.DSRService` and
:func:`repro.api.open_engine` can serve a fleet wherever a single engine was
expected.  Its ``epoch`` is a *fleet version*: a counter bumped on every
replica's epoch publish (update flushes and strategy rebuilds alike), which
is what the service's epoch-tagged result cache keys on — any replica moving
invalidates conservatively, never incorrectly.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.config import DSRConfig
from repro.api.query import ReachQuery
from repro.core.engine import DSREngine
from repro.core.query import QueryResult
from repro.fleet.replica import FleetReplica
from repro.fleet.router import QueryRouter, RouteDecision
from repro.fleet.tuner import FleetTuner
from repro.graph.digraph import DiGraph
from repro.obs.runtime import global_registry
from repro.partition.partition import GraphPartitioning, make_partitioning
from repro.resilience.supervisor import HealthSupervisor

#: Default heterogeneous composition: a shared-frontier sweep engine for the
#: large-root-set end, interval pruning for the middle, and a materialised
#: closure for small repeated lookups.  Integer ``replicas=N`` configs draw
#: from this trio round-robin.
DEFAULT_FLEET_STRATEGIES = ("msbfs", "ferrari", "closure")


def resolve_replica_strategies(replicas: Any) -> Tuple[str, ...]:
    """Expand a ``DSRConfig.replicas`` value into per-replica strategy names."""
    if replicas is None:
        return DEFAULT_FLEET_STRATEGIES
    if isinstance(replicas, int) and not isinstance(replicas, bool):
        cycle = itertools.cycle(DEFAULT_FLEET_STRATEGIES)
        return tuple(next(cycle) for _ in range(replicas))
    return tuple(replicas)


class ReplicaFleet:
    """A workload-adaptive set of heterogeneous DSR engine replicas."""

    #: Registry name under which the fleet satisfies the Backend protocol.
    name = "dsr-fleet"

    def __init__(
        self,
        replicas: Sequence[FleetReplica],
        config: Optional[DSRConfig] = None,
        retune_interval: int = 512,
    ) -> None:
        if not replicas:
            raise ValueError("a fleet needs at least one replica")
        self.replicas = list(replicas)
        self.config = config
        #: Re-cluster the workload every this many routed queries (0 = only
        #: on explicit :meth:`retune` calls).
        self.retune_interval = retune_interval
        self.router = QueryRouter(self.replicas)
        self.tuner = FleetTuner(self)
        self.epoch_flush = getattr(self.replicas[0].engine, "epoch_flush", "inline")
        self._version = 0
        self._version_lock = threading.Lock()
        self._update_lock = threading.RLock()
        self._routes = 0
        self._routes_lock = threading.Lock()
        self._retune_thread: Optional[threading.Thread] = None
        self._retune_spawn_lock = threading.Lock()
        self._listeners_attached = False
        #: Health supervisor ejecting unhealthy replicas from routing
        #: (``None`` until :meth:`enable_health`).
        self.health: Optional[HealthSupervisor] = None
        self._owns_health = False
        if self.is_built:
            self._attach_version_listeners()
        registry = global_registry()
        if registry.enabled:
            registry.set_gauge("dsr_fleet_replicas", len(self.replicas))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(
        cls,
        graph: DiGraph,
        config: Optional[DSRConfig] = None,
        *,
        partitioning: Optional[GraphPartitioning] = None,
        retune_interval: int = 512,
    ) -> "ReplicaFleet":
        """Open a ready-to-query fleet over ``graph``.

        The partitioning is computed once and shared *by value*: the primary
        replica runs on the caller's graph, every other replica on its own
        :meth:`~repro.graph.digraph.DiGraph.copy` with an identical partition
        assignment — same answers, independent index state.  Each replica's
        engine is opened from the same config with only ``local_index``
        swapped to its strategy, then built eagerly.
        """
        config = config if config is not None else DSRConfig(fleet=True)
        if not config.fleet:
            config = config.replace(fleet=True)
        strategies = resolve_replica_strategies(config.replicas)
        if partitioning is None:
            partitioning = make_partitioning(
                graph,
                config.num_partitions,
                strategy=config.partitioner,
                seed=config.seed,
            )
        replicas = []
        for replica_id, strategy in enumerate(strategies):
            replica_config = config.replace(
                fleet=False,
                replicas=None,
                local_index=strategy,
                local_index_options=None,
            )
            if replica_id == 0:
                replica_graph, replica_partitioning = graph, partitioning
            else:
                replica_graph = graph.copy()
                replica_partitioning = GraphPartitioning(
                    replica_graph,
                    dict(partitioning.assignment),
                    partitioning.num_partitions,
                )
            engine = DSREngine.from_config(
                replica_graph, replica_config, partitioning=replica_partitioning
            )
            engine.build_index()
            replicas.append(FleetReplica(replica_id, engine))
        return cls(replicas, config=config, retune_interval=retune_interval)

    def _attach_version_listeners(self) -> None:
        """Bump the fleet version on every replica's epoch publish."""
        if self._listeners_attached:
            return
        for replica in self.replicas:
            maintainer = replica.engine.maintainer
            if maintainer is not None:
                maintainer.add_flush_listener(self._bump_version)
        self._listeners_attached = True

    def _bump_version(self, _flush_result=None) -> None:
        with self._version_lock:
            self._version += 1

    # ------------------------------------------------------------------ #
    # engine facade: lifecycle & identity
    # ------------------------------------------------------------------ #
    @property
    def primary(self) -> FleetReplica:
        return self.replicas[0]

    @property
    def graph(self) -> DiGraph:
        return self.primary.engine.graph

    @property
    def cluster(self):
        return self.primary.engine.cluster

    @property
    def index(self):
        return self.primary.engine.index

    @property
    def partitioning(self) -> GraphPartitioning:
        return self.primary.engine.partitioning

    @property
    def maintainer(self):
        """The primary replica's maintainer (cache/observer attachment point).

        Updates fan out to every replica, so the primary's update/flush
        stream sees every mutation — sufficient for an invalidating cache.
        """
        return self.primary.engine.maintainer

    @property
    def enable_backward(self) -> bool:
        return self.primary.engine.enable_backward

    @property
    def is_built(self) -> bool:
        return all(replica.engine.is_built for replica in self.replicas)

    def build_index(self):
        """Build any unbuilt replica indexes; returns the primary's report."""
        report = None
        for replica in self.replicas:
            if not replica.engine.is_built:
                built = replica.engine.build_index()
                if replica is self.primary:
                    report = built
        self._attach_version_listeners()
        if report is None:
            report = self.primary.engine.last_build_report
        return report

    @property
    def last_build_report(self):
        return self.primary.engine.last_build_report

    @property
    def epoch(self) -> int:
        """The fleet version: bumped whenever *any* replica publishes.

        This is what epoch-tagged caches key on — coarser than any single
        replica's epoch, so an entry can only ever be invalidated too eagerly,
        never served stale.
        """
        return self._version

    def close(self) -> None:
        if self.health is not None and self._owns_health:
            self.health.stop()
        for replica in self.replicas:
            replica.wait_for_rebuild(timeout=5.0)
            replica.engine.close()

    def __enter__(self) -> "ReplicaFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # reads: route, then run on the routed replica
    # ------------------------------------------------------------------ #
    def route(self, query: ReachQuery, record: bool = True) -> RouteDecision:
        """Route one query; periodically kicks the background re-tuner."""
        decision = self.router.route(query, record=record)
        if record:
            with self._routes_lock:
                self._routes += 1
                routes = self._routes
            if self.retune_interval and routes % self.retune_interval == 0:
                self.request_retune()
        return decision

    def run(self, query: ReachQuery) -> QueryResult:
        """Answer one query on the argmin-cost replica (Backend protocol)."""
        decision = self.route(query)
        return decision.replica.engine.run(query)

    def reachable(self, source: int, target: int) -> bool:
        return (source, target) in self.run(ReachQuery.single(source, target)).pairs

    # ------------------------------------------------------------------ #
    # writes: fan out to every replica
    # ------------------------------------------------------------------ #
    def insert_edge(self, u: int, v: int):
        with self._update_lock:
            result = self.primary.engine.insert_edge(u, v)
            for replica in self.replicas[1:]:
                replica.engine.insert_edge(u, v)
        return result

    def delete_edge(self, u: int, v: int):
        with self._update_lock:
            result = self.primary.engine.delete_edge(u, v)
            for replica in self.replicas[1:]:
                replica.engine.delete_edge(u, v)
        return result

    def insert_vertex(
        self, vertex: Optional[int] = None, partition_id: Optional[int] = None
    ) -> int:
        """Insert a vertex on every replica, keeping assignments aligned.

        The primary resolves the auto-picked id and partition; the other
        replicas replay the insert with both pinned, so
        ``partition_of(vertex)`` agrees fleet-wide afterwards.
        """
        with self._update_lock:
            new_vertex = self.primary.engine.insert_vertex(vertex, partition_id)
            resolved_partition = self.primary.engine.partitioning.partition_of(
                new_vertex
            )
            for replica in self.replicas[1:]:
                replica.engine.insert_vertex(new_vertex, resolved_partition)
        return new_vertex

    def delete_vertex(self, vertex: int):
        with self._update_lock:
            result = self.primary.engine.delete_vertex(vertex)
            for replica in self.replicas[1:]:
                replica.engine.delete_vertex(vertex)
        return result

    def flush_updates(self):
        """Flush every replica synchronously; returns the primary's result."""
        with self._update_lock:
            results = [replica.engine.flush_updates() for replica in self.replicas]
        return results[0]

    @property
    def has_pending_updates(self) -> bool:
        return any(replica.engine.has_pending_updates for replica in self.replicas)

    def wait_for_maintenance(self, timeout: Optional[float] = None) -> bool:
        """Wait out background flushes, rebuilds and any in-flight retune."""
        done = True
        for replica in self.replicas:
            done = replica.engine.wait_for_maintenance(timeout) and done
            done = replica.wait_for_rebuild(timeout) and done
        thread = self._retune_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
            done = done and not thread.is_alive()
        return done

    # ------------------------------------------------------------------ #
    # tuning
    # ------------------------------------------------------------------ #
    def retune(self):
        """Run one synchronous clustering-and-tuning round."""
        return self.tuner.retune()

    def request_retune(self) -> bool:
        """Kick a background retune; no-op while one is already in flight."""
        with self._retune_spawn_lock:
            if self._retune_thread is not None and self._retune_thread.is_alive():
                return False
            thread = threading.Thread(
                target=self._retune_guarded, name="fleet-retune", daemon=True
            )
            self._retune_thread = thread
            thread.start()
            return True

    def _retune_guarded(self) -> None:
        try:
            self.tuner.retune()
        except BaseException:  # pragma: no cover - captured in tuner.last_error
            pass

    # ------------------------------------------------------------------ #
    # health
    # ------------------------------------------------------------------ #
    def enable_health(
        self,
        supervisor: Optional[HealthSupervisor] = None,
        probe_interval_seconds: float = 1.0,
        failure_threshold: int = 3,
        start: bool = True,
    ) -> HealthSupervisor:
        """Register every replica with a health supervisor.

        Each replica becomes a ``replica:{id}`` target probed via
        :meth:`FleetReplica.probe`; when its breaker opens, the replica is
        ejected from the router (zero routed queries until recovery), and a
        later successful probe re-admits it automatically.

        Pass an existing ``supervisor`` to share one probe loop (the
        service does this to co-supervise worker hosts); the fleet then
        does *not* own its lifecycle.  Otherwise a new supervisor is
        created (and started when ``start``), stopped again by
        :meth:`close`.
        """
        if self.health is not None:
            return self.health
        owned = supervisor is None
        if supervisor is None:
            supervisor = HealthSupervisor(
                probe_interval_seconds=probe_interval_seconds,
                failure_threshold=failure_threshold,
            )
        for replica in self.replicas:
            supervisor.add_target(
                f"replica:{replica.replica_id}",
                probe=replica.probe,
                on_eject=lambda rid=replica.replica_id: self.router.eject(rid),
                on_admit=lambda rid=replica.replica_id: self.router.readmit(rid),
            )
        self.health = supervisor
        self._owns_health = owned
        if owned and start:
            supervisor.start()
        return supervisor

    # ------------------------------------------------------------------ #
    # service integration & introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """The ``fleet`` section of ``DSRService.stats()``."""
        route_counts = self.router.route_counts()
        replicas: List[Dict[str, Any]] = []
        for replica in self.replicas:
            entry = replica.stats()
            entry["routes"] = route_counts.get(replica.replica_id, 0)
            replicas.append(entry)
        last = self.tuner.last_result
        return {
            "replicas": replicas,
            "ejected": list(self.router.ejected_ids()),
            "version": self._version,
            "routes": self._routes,
            "routing_table_size": len(self.router.routing_table()),
            "workload_classes": self.router.histogram.num_classes,
            "retunes": self.tuner.retune_count,
            "retune_interval": self.retune_interval,
            "last_retune": (
                {
                    "applied": last.applied,
                    "modeled_cost": last.modeled_cost,
                    "iterations": max(0, len(last.cost_trajectory) - 1),
                    "strategies": list(last.strategies),
                    "rebuilds": list(last.rebuilds),
                    "reason": last.reason,
                }
                if last is not None
                else None
            ),
            "tuner_error": (
                str(self.tuner.last_error)
                if self.tuner.last_error is not None
                else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        strategies = ", ".join(replica.strategy for replica in self.replicas)
        return f"<ReplicaFleet replicas=[{strategies}] version={self._version}>"


__all__ = [
    "DEFAULT_FLEET_STRATEGIES",
    "ReplicaFleet",
    "resolve_replica_strategies",
]
