"""One specialised engine replica inside a :class:`~repro.fleet.ReplicaFleet`.

A replica is a full :class:`~repro.core.engine.DSREngine` over (a copy of)
the served graph, distinguished from its siblings only by the local
reachability strategy its compound graphs run — the knob the fleet tuner
turns.  Each replica carries its own :class:`~repro.service.planner.QueryPlanner`
so the router can ask "what would *this* replica charge for that query?"
without touching any other replica's state.

Strategy swaps happen through :meth:`FleetReplica.rebuild_to`, which drives
:meth:`DSREngine.rebuild_local_strategy` — the epoch-swap rebuild — either
synchronously or on a daemon thread.  While a background rebuild runs the
replica keeps serving its current epoch, so routing never blocks on a swap.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.core.engine import DSREngine
from repro.obs.runtime import global_registry
from repro.resilience.failpoints import failpoint
from repro.service.planner import QueryPlanner


class FleetReplica:
    """A fleet member: one engine, one planner, one current strategy."""

    def __init__(self, replica_id: int, engine: DSREngine) -> None:
        self.replica_id = replica_id
        self.engine = engine
        self.planner = QueryPlanner(engine)
        self.rebuild_count = 0
        self.rebuild_error: Optional[BaseException] = None
        self._rebuild_lock = threading.Lock()
        self._rebuild_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def strategy(self) -> str:
        """Registry name of the local strategy this replica currently serves."""
        return self.engine.local_index

    @property
    def rebuilding(self) -> bool:
        """True while a background strategy rebuild is in flight."""
        thread = self._rebuild_thread
        return thread is not None and thread.is_alive()

    # ------------------------------------------------------------------ #
    # strategy lifecycle
    # ------------------------------------------------------------------ #
    def rebuild_to(self, strategy: str, background: bool = False) -> bool:
        """Re-specialise this replica to ``strategy`` via an epoch swap.

        Returns ``True`` when a rebuild was started (or completed, in the
        synchronous case).  A no-op when the replica already runs the
        strategy or another rebuild is still in flight — the tuner simply
        retries on its next round, which keeps the loop non-blocking.
        """
        with self._rebuild_lock:
            if strategy == self.strategy:
                return False
            if self._rebuild_thread is not None and self._rebuild_thread.is_alive():
                return False
            if not background:
                self._do_rebuild(strategy)
                return True
            thread = threading.Thread(
                target=self._do_rebuild,
                args=(strategy,),
                name=f"fleet-rebuild-{self.replica_id}",
                daemon=True,
            )
            self._rebuild_thread = thread
            thread.start()
            return True

    def _do_rebuild(self, strategy: str) -> None:
        registry = global_registry()
        try:
            failpoint("fleet.rebuild", replica=self.replica_id, strategy=strategy)
            self.engine.rebuild_local_strategy(strategy)
        except BaseException as exc:
            self.rebuild_error = exc
            if registry.enabled:
                registry.inc(
                    "dsr_fleet_rebuilds_total",
                    replica=str(self.replica_id),
                    outcome="error",
                )
            return
        self.rebuild_count += 1
        self.rebuild_error = None
        if registry.enabled:
            registry.inc(
                "dsr_fleet_rebuilds_total",
                replica=str(self.replica_id),
                outcome="published",
            )

    def wait_for_rebuild(self, timeout: Optional[float] = None) -> bool:
        """Block until no background rebuild is in flight (False on timeout)."""
        thread = self._rebuild_thread
        if thread is None or not thread.is_alive():
            return True
        thread.join(timeout)
        return not thread.is_alive()

    # ------------------------------------------------------------------ #
    # health
    # ------------------------------------------------------------------ #
    def probe(self) -> bool:
        """Health-probe predicate: built index and no failed rebuild.

        The :class:`~repro.resilience.HealthSupervisor` calls this per
        round; a replica whose last strategy rebuild blew up stays
        unhealthy (and ejected from routing) until a later rebuild clears
        ``rebuild_error``.
        """
        return self.rebuild_error is None and self.engine.is_built

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        return {
            "replica": self.replica_id,
            "strategy": self.strategy,
            "epoch": self.engine.epoch,
            "rebuilding": self.rebuilding,
            "rebuilds": self.rebuild_count,
            "rebuild_error": (
                str(self.rebuild_error) if self.rebuild_error is not None else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FleetReplica id={self.replica_id} strategy={self.strategy!r} "
            f"epoch={self.engine.epoch}>"
        )


__all__ = ["FleetReplica"]
