"""Cost-routed query dispatch over heterogeneous replicas.

The router answers one question per incoming query: *which replica is
cheapest for this query class?*  It fingerprints the query (tenant label,
direction and the log2 buckets of ``|S|`` and ``|T|``), asks
every replica's planner for its modeled cost through the stable
:meth:`~repro.service.planner.QueryPlanner.estimate_query_cost` contract, and
picks the argmin — deterministically, with ties broken by the lowest replica
id, so a seeded workload always produces the same routing.

Two observers ride along on every decision:

* a :class:`WorkloadHistogram` — the decayed query-class histogram the fleet
  tuner clusters (no scipy: plain exponentially decayed weights per
  fingerprint, swept periodically);
* the obs registry — ``dsr_fleet_route_total{replica=…}`` counters and the
  ``dsr_fleet_route_cost_gap`` histogram of how far the *chosen* replica's
  cost sits above the instantaneous best (non-zero only when a tuner-pinned
  routing-table entry overrides the argmin).

The tuner installs a fingerprint → replica table
(:meth:`QueryRouter.install_table`); table entries take precedence over the
per-query argmin so routing stays stable between re-tunes even while a
replica's index strategy is being rebuilt underneath it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.query import ReachQuery
from repro.obs.runtime import global_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.replica import FleetReplica

#: ``(tenant, direction, |S| bucket, |T| bucket)``.
QueryFingerprint = Tuple[str, str, int, int]


def size_bucket(count: int) -> int:
    """Log2 bucket of a cardinality (0 → 0, 1 → 1, 2 → 2, 3-4 → 3, ...)."""
    return int(count).bit_length()


def fingerprint_query(query: ReachQuery) -> QueryFingerprint:
    """The query-class fingerprint the router and tuner share.

    Only shape enters the fingerprint — never concrete vertex ids — so
    queries that cost the same cluster together.
    """
    return (
        query.tenant or "",
        query.direction,
        size_bucket(len(query.sources)),
        size_bucket(len(query.targets)),
    )


@dataclass(frozen=True)
class QueryClass:
    """One clustered workload class: a fingerprint plus decayed statistics."""

    fingerprint: QueryFingerprint
    weight: float
    num_sources: int
    num_targets: int

    def as_query(self) -> ReachQuery:
        """A representative query for costing (ids are placeholders)."""
        return ReachQuery(
            sources=tuple(range(self.num_sources)),
            targets=tuple(range(self.num_sources, self.num_sources + self.num_targets)),
            direction=self.fingerprint[1],
            tenant=self.fingerprint[0] or None,
        )


class WorkloadHistogram:
    """Decayed query-class histogram of the recent routed workload.

    Every routed query adds weight 1.0 to its fingerprint's bin and folds its
    cardinalities into the bin's running means (exponential moving average).
    Every ``decay_every`` records all weights are multiplied by ``decay`` and
    bins below a drop threshold are evicted, so classes the workload stopped
    issuing fade out instead of pinning replicas forever.  Deterministic for
    a given record sequence — the property the routing-determinism tests pin.
    """

    def __init__(
        self,
        decay: float = 0.9,
        decay_every: int = 256,
        max_classes: int = 512,
        mean_alpha: float = 0.25,
    ) -> None:
        if not (0.0 < decay <= 1.0):
            raise ValueError("decay must be in (0, 1]")
        self.decay = decay
        self.decay_every = max(1, decay_every)
        self.max_classes = max(1, max_classes)
        self.mean_alpha = mean_alpha
        self._weights: Dict[QueryFingerprint, float] = {}
        self._mean_sources: Dict[QueryFingerprint, float] = {}
        self._mean_targets: Dict[QueryFingerprint, float] = {}
        self._records = 0
        self._lock = threading.Lock()

    def record(
        self, fingerprint: QueryFingerprint, num_sources: int, num_targets: int
    ) -> None:
        with self._lock:
            self._records += 1
            if fingerprint in self._weights:
                self._weights[fingerprint] += 1.0
                alpha = self.mean_alpha
                self._mean_sources[fingerprint] += alpha * (
                    num_sources - self._mean_sources[fingerprint]
                )
                self._mean_targets[fingerprint] += alpha * (
                    num_targets - self._mean_targets[fingerprint]
                )
            else:
                self._weights[fingerprint] = 1.0
                self._mean_sources[fingerprint] = float(num_sources)
                self._mean_targets[fingerprint] = float(num_targets)
            if self._records % self.decay_every == 0:
                self._decay_locked()

    def _decay_locked(self) -> None:
        for fingerprint in list(self._weights):
            self._weights[fingerprint] *= self.decay
            if self._weights[fingerprint] < 0.05:
                del self._weights[fingerprint]
                del self._mean_sources[fingerprint]
                del self._mean_targets[fingerprint]
        if len(self._weights) > self.max_classes:
            # Keep the heaviest classes; break weight ties by fingerprint so
            # the eviction order is deterministic.
            ranked = sorted(
                self._weights, key=lambda fp: (-self._weights[fp], fp)
            )
            for fingerprint in ranked[self.max_classes :]:
                del self._weights[fingerprint]
                del self._mean_sources[fingerprint]
                del self._mean_targets[fingerprint]

    @property
    def num_records(self) -> int:
        return self._records

    @property
    def num_classes(self) -> int:
        with self._lock:
            return len(self._weights)

    def snapshot(self) -> List[QueryClass]:
        """The current classes, sorted by fingerprint (deterministic order)."""
        with self._lock:
            return [
                QueryClass(
                    fingerprint=fingerprint,
                    weight=self._weights[fingerprint],
                    num_sources=max(1, round(self._mean_sources[fingerprint])),
                    num_targets=max(1, round(self._mean_targets[fingerprint])),
                )
                for fingerprint in sorted(self._weights)
            ]


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of routing one query."""

    replica: "FleetReplica"
    fingerprint: QueryFingerprint
    #: Modeled cost per replica, in replica-id order.
    costs: Tuple[float, ...]
    #: Cost of the replica actually chosen.
    routed_cost: float
    #: The instantaneous argmin cost (equals ``routed_cost`` unless a pinned
    #: routing-table entry overrode the argmin).
    best_cost: float
    #: True when a tuner-installed table entry decided the route.
    table_hit: bool = False

    @property
    def cost_gap(self) -> float:
        """Relative routed-vs-best cost gap (0.0 when routed == best)."""
        if self.best_cost <= 0.0:
            return 0.0
        return max(0.0, (self.routed_cost - self.best_cost) / self.best_cost)


class QueryRouter:
    """Fingerprints queries and routes each to the argmin-cost replica."""

    def __init__(
        self,
        replicas: Sequence["FleetReplica"],
        histogram: Optional[WorkloadHistogram] = None,
    ) -> None:
        if not replicas:
            raise ValueError("a router needs at least one replica")
        self.replicas = list(replicas)
        self.histogram = histogram if histogram is not None else WorkloadHistogram()
        self._table: Dict[QueryFingerprint, int] = {}
        self._table_lock = threading.Lock()
        self._route_counts: Dict[int, int] = {
            replica.replica_id: 0 for replica in self.replicas
        }
        #: Replica ids the health supervisor has ejected from routing.
        self._ejected: set = set()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, query: ReachQuery, record: bool = True) -> RouteDecision:
        """Pick the serving replica for ``query``.

        A tuner-pinned routing-table entry wins when present; otherwise the
        argmin of every replica's
        :meth:`~repro.service.planner.QueryPlanner.estimate_query_cost`, ties
        broken by lowest replica id.  ``record=False`` skips the workload
        histogram (used for what-if probes that must not perturb tuning).
        """
        fingerprint = fingerprint_query(query)
        if record:
            self.histogram.record(
                fingerprint, len(query.sources), len(query.targets)
            )
        costs = tuple(
            replica.planner.estimate_query_cost(query) for replica in self.replicas
        )
        with self._table_lock:
            pinned = self._table.get(fingerprint)
            ejected = set(self._ejected)
        # Health filter: an ejected replica receives zero routed queries.
        # If *everything* is ejected, fall back to the full set — answering
        # on a suspect replica beats answering nothing (availability over
        # purity; the breaker keeps probing and re-admits on recovery).
        healthy = [
            i for i, replica in enumerate(self.replicas)
            if replica.replica_id not in ejected
        ]
        if not healthy:
            healthy = list(range(len(self.replicas)))
        best_index = min(healthy, key=lambda i: (costs[i], i))
        if pinned is not None and pinned in healthy:
            chosen_index, table_hit = pinned, True
        else:
            # A pinned entry pointing at an ejected replica is bypassed:
            # failover to the cheapest healthy replica instead.
            chosen_index, table_hit = best_index, False
        replica = self.replicas[chosen_index]
        decision = RouteDecision(
            replica=replica,
            fingerprint=fingerprint,
            costs=costs,
            routed_cost=costs[chosen_index],
            best_cost=costs[best_index],
            table_hit=table_hit,
        )
        if record:
            with self._table_lock:
                self._route_counts[replica.replica_id] += 1
            registry = global_registry()
            if registry.enabled:
                registry.inc(
                    "dsr_fleet_route_total",
                    replica=str(replica.replica_id),
                    strategy=replica.strategy,
                )
                registry.observe("dsr_fleet_route_cost_gap", decision.cost_gap)
        return decision

    # ------------------------------------------------------------------ #
    # health interface
    # ------------------------------------------------------------------ #
    def eject(self, replica_id: int) -> None:
        """Remove a replica from routing (supervisor: breaker opened)."""
        with self._table_lock:
            if replica_id in self._ejected:
                return
            self._ejected.add(replica_id)
        registry = global_registry()
        if registry.enabled:
            registry.inc(
                "dsr_replica_ejections_total", replica=str(replica_id)
            )

    def readmit(self, replica_id: int) -> None:
        """Return an ejected replica to routing (breaker closed again)."""
        with self._table_lock:
            self._ejected.discard(replica_id)

    def ejected_ids(self) -> Tuple[int, ...]:
        with self._table_lock:
            return tuple(sorted(self._ejected))

    # ------------------------------------------------------------------ #
    # tuner interface
    # ------------------------------------------------------------------ #
    def install_table(self, table: Mapping[QueryFingerprint, int]) -> None:
        """Atomically replace the pinned fingerprint → replica-index table."""
        cleaned = {
            fingerprint: index
            for fingerprint, index in table.items()
            if 0 <= index < len(self.replicas)
        }
        with self._table_lock:
            self._table = cleaned

    def routing_table(self) -> Dict[QueryFingerprint, int]:
        with self._table_lock:
            return dict(self._table)

    def route_counts(self) -> Dict[int, int]:
        """Routed-query counts per replica id."""
        with self._table_lock:
            return dict(self._route_counts)


__all__ = [
    "QueryClass",
    "QueryFingerprint",
    "QueryRouter",
    "RouteDecision",
    "WorkloadHistogram",
    "fingerprint_query",
    "size_bucket",
]
