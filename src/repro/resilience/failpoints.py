"""Named, seeded, deterministic fault-injection sites.

A **failpoint** is a named hook compiled into a real failure seam —
``failpoint("executor.call", rank=r)`` sits exactly where a worker RPC can fail
in production.  With no schedule configured the call is two attribute reads
(the same zero-cost-when-disabled contract as
:attr:`repro.obs.registry.MetricsRegistry.enabled`); with one, each
matching hit is evaluated against the spec's trigger window and fires its
action: raise a typed error, delay, drop the connection, or invoke a test
callback.

Determinism is the point: a chaos suite configures an explicit, seeded
schedule (which hit of which site fails, how many times) and replays it
identically on every run — no random process killers.

Sites wired into the codebase (the catalog lives in
``docs/RESILIENCE.md``):

==========================  =====================================================
site                        seam
==========================  =====================================================
``executor.call``           remote executor ``_call_worker`` send side
``executor.recv``           remote executor ``_call_worker`` receive side
``executor.hydrate``        remote executor ``hydrate`` / ``hydrate_all``
``executor.hydrate.replay`` reconnect-time hydration replay
``shard.load``              worker-side shard hydration (``load_shard``)
``service.flush``           the service's explicit-flush update path
==========================  =====================================================

Configuration
-------------
Programmatic (tests): ``use_failpoints([FailPointSpec(...)])`` scopes a
schedule to a ``with`` block.  Environment (CI chaos jobs):
``REPRO_FAILPOINTS`` holds a JSON list of spec dicts and is read once at
import, e.g.::

    REPRO_FAILPOINTS='[{"site": "executor.call", "action": "drop",
                        "labels": {"rank": 0, "executor": "tcp"},
                        "after": 2, "count": 1}]'

The four ``executor.*`` sites carry an ``executor`` label (``processes`` or
``tcp``), so one spec can target either remote executor or both.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence


class FailPointError(RuntimeError):
    """Default error a ``raise`` action throws when no type is named."""


#: Exception types a ``raise`` action may name (wire-safe string → class).
_RAISABLE: Dict[str, type] = {
    "FailPointError": FailPointError,
    "ConnectionError": ConnectionError,
    "ConnectionResetError": ConnectionResetError,
    "OSError": OSError,
    "EOFError": EOFError,
    "TimeoutError": TimeoutError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
}

#: Actions a spec may take when it fires.
ACTIONS = ("raise", "delay", "drop", "call")


@dataclass
class FailPointSpec:
    """One scheduled fault: where, what, and exactly when.

    ``site``
        The failpoint name the spec arms (exact match).
    ``action`` / ``value``
        ``"raise"`` throws ``value`` (an exception-type name from the
        raisable table, default :class:`FailPointError`); ``"delay"`` sleeps
        ``value`` seconds; ``"drop"`` raises :class:`ConnectionError` (the
        transport-loss idiom every RPC seam already handles); ``"call"``
        invokes ``value(labels)`` — an in-process hook for tests that need a
        real side effect (e.g. killing a managed worker-host subprocess).
    ``labels``
        Optional subset match against the site's call labels: a spec with
        ``labels={"rank": 0}`` only matches hits carrying ``rank=0``.
    ``after`` / ``count``
        The trigger window over *matching* hits: skip the first ``after``,
        then fire for ``count`` hits (``None`` = forever).
    ``probability``
        Fire each windowed hit only with this probability, drawn from the
        registry's seeded RNG — deterministic for a given seed + hit order.
    """

    site: str
    action: str = "raise"
    value: Any = None
    labels: Optional[Dict[str, Any]] = None
    after: int = 0
    count: Optional[int] = 1
    probability: float = 1.0
    #: Mutable hit accounting (managed by the registry).
    hits: int = field(default=0, repr=False)
    fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown failpoint action {self.action!r}; "
                f"available: {', '.join(ACTIONS)}"
            )
        if self.action == "raise":
            name = self.value if self.value is not None else "FailPointError"
            if name not in _RAISABLE:
                raise ValueError(
                    f"cannot raise {name!r}; known: {', '.join(sorted(_RAISABLE))}"
                )
        elif self.action == "delay":
            if not isinstance(self.value, (int, float)) or self.value < 0:
                raise ValueError("delay action needs a non-negative seconds value")
        elif self.action == "call" and not callable(self.value):
            raise ValueError("call action needs a callable value")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 or None")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")

    def matches(self, site: str, labels: Mapping[str, Any]) -> bool:
        if site != self.site:
            return False
        if self.labels:
            return all(labels.get(k) == v for k, v in self.labels.items())
        return True

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FailPointSpec":
        known = {"site", "action", "value", "labels", "after", "count", "probability"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown failpoint spec keys: {', '.join(unknown)}")
        if "site" not in payload:
            raise ValueError("failpoint spec needs a 'site'")
        return cls(**dict(payload))


class FailPointRegistry:
    """The armed failpoint schedule of one process.

    ``enabled`` is the zero-cost switch: :func:`failpoint` reads it before
    doing anything else, so an empty registry costs a single branch per
    site.  All mutation and evaluation is lock-protected — sites fire from
    worker/dispatch threads concurrently.
    """

    def __init__(self, specs: Sequence[FailPointSpec] = (), seed: int = 0) -> None:
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._specs: List[FailPointSpec] = []
        self.enabled = False
        if specs:
            self.configure(specs)

    def configure(self, specs: Sequence[FailPointSpec]) -> None:
        """Atomically replace the schedule (arming the registry)."""
        with self._lock:
            self._specs = list(specs)
            self.enabled = bool(self._specs)

    def add(self, spec: FailPointSpec) -> None:
        with self._lock:
            self._specs.append(spec)
            self.enabled = True

    def clear(self) -> None:
        with self._lock:
            self._specs = []
            self.enabled = False

    def fired(self, site: Optional[str] = None) -> int:
        """How many scheduled faults actually fired (optionally per site)."""
        with self._lock:
            return sum(
                spec.fired
                for spec in self._specs
                if site is None or spec.site == site
            )

    def specs(self) -> List[FailPointSpec]:
        with self._lock:
            return list(self._specs)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, site: str, labels: Mapping[str, Any]) -> None:
        """Run ``site``'s matching specs; called only when ``enabled``."""
        to_fire: List[FailPointSpec] = []
        with self._lock:
            for spec in self._specs:
                if not spec.matches(site, labels):
                    continue
                spec.hits += 1
                if spec.hits <= spec.after:
                    continue
                if spec.count is not None and spec.fired >= spec.count:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                spec.fired += 1
                to_fire.append(spec)
        # Actions run outside the lock: a delay must not serialise every
        # other site, and a call-action may re-enter arbitrary code.
        for spec in to_fire:
            self._fire(spec, site, labels)

    def _fire(self, spec: FailPointSpec, site: str, labels: Mapping[str, Any]) -> None:
        if spec.action == "delay":
            time.sleep(float(spec.value))
            return
        if spec.action == "call":
            spec.value(dict(labels))
            return
        if spec.action == "drop":
            raise ConnectionError(f"failpoint {site!r} dropped the connection")
        name = spec.value if spec.value is not None else "FailPointError"
        raise _RAISABLE[name](f"failpoint {site!r} injected {name}")

    @classmethod
    def from_env(cls, value: str, seed: int = 0) -> "FailPointRegistry":
        """Parse a ``REPRO_FAILPOINTS`` JSON schedule into a registry."""
        try:
            payload = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ValueError(f"REPRO_FAILPOINTS is not valid JSON: {exc}") from exc
        if not isinstance(payload, list):
            raise ValueError("REPRO_FAILPOINTS must be a JSON list of spec dicts")
        return cls([FailPointSpec.from_dict(entry) for entry in payload], seed=seed)


_global = FailPointRegistry()


def global_failpoints() -> FailPointRegistry:
    """The process-wide registry every compiled-in site consults."""
    return _global


def set_global_failpoints(registry: FailPointRegistry) -> FailPointRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _global
    previous = _global
    _global = registry
    return previous


@contextmanager
def use_failpoints(
    specs: Sequence[FailPointSpec], seed: int = 0
) -> Iterator[FailPointRegistry]:
    """Scope a schedule to a ``with`` block (the test idiom)."""
    registry = FailPointRegistry(specs, seed=seed)
    previous = set_global_failpoints(registry)
    try:
        yield registry
    finally:
        set_global_failpoints(previous)


def failpoint(site: str, **labels: Any) -> None:
    """The compiled-in hook.  Disabled: two attribute reads and a branch."""
    registry = _global
    if not registry.enabled:
        return
    registry.evaluate(site, labels)


def _bootstrap_from_env() -> None:
    value = os.environ.get("REPRO_FAILPOINTS")
    if value:
        seed = int(os.environ.get("REPRO_FAILPOINTS_SEED", "0"))
        set_global_failpoints(FailPointRegistry.from_env(value, seed=seed))


_bootstrap_from_env()


__all__ = [
    "ACTIONS",
    "FailPointError",
    "FailPointRegistry",
    "FailPointSpec",
    "failpoint",
    "global_failpoints",
    "set_global_failpoints",
    "use_failpoints",
]
