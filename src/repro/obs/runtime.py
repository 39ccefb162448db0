"""Process-global metrics registry and worker-side delta plumbing.

Every process — the master and each long-lived shard worker — owns exactly
one :class:`~repro.obs.registry.MetricsRegistry`, reached through
:func:`global_registry`.  Instrumented call sites all over the codebase
(``core.packed_steps``, ``core.shard_exec``, ``core.query``,
``core.updates``...) record into whatever registry is current, which gives
the process topology for free:

* the ``serial`` executor records straight into the master's registry;
* forked shard workers call :func:`reset_for_worker` on startup (dropping
  the fork-inherited copy of the parent's state) and then record locally;
  after each task the worker ships
  :meth:`~repro.obs.registry.MetricsRegistry.collect_delta` piggybacked on
  its reply, and the parent folds it in with :func:`absorb_delta` — the
  same merge-at-master pattern as ``Network.absorb()``.

Tests swap in a private registry with :func:`use_registry` so totals are
isolated per test.  Note the swap is master-side only: already-running
worker processes keep shipping into whichever registry is current at the
moment their reply is absorbed, which is exactly what the exactness tests
want.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.registry import MetricsDelta, MetricsRegistry

_global_registry = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The current process-wide registry (hot path: one call + attr reads)."""
    return _global_registry


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Scope a (fresh by default) registry as the process-global one."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_global_registry(registry)
    try:
        yield registry
    finally:
        set_global_registry(previous)


# ---------------------------------------------------------------------- #
# worker-process plumbing
# ---------------------------------------------------------------------- #
def reset_for_worker() -> None:
    """Drop fork-inherited metric state (worker main calls this once).

    Without the reset a forked worker would ship the parent's pre-fork
    totals back as its own delta and every metric would double-count.
    """
    _global_registry.reset()


def collect_worker_delta() -> Optional[MetricsDelta]:
    """Snapshot-and-reset this worker's registry for piggybacked shipping."""
    return _global_registry.collect_delta()


def absorb_delta(delta: Optional[MetricsDelta]) -> None:
    """Master side: fold a worker's shipped delta into the current registry."""
    if delta is not None:
        _global_registry.absorb(delta)


__all__ = [
    "absorb_delta",
    "collect_worker_delta",
    "global_registry",
    "reset_for_worker",
    "set_global_registry",
    "use_registry",
]
