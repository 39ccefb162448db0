"""Health supervision: circuit breakers + the probing supervisor.

:class:`CircuitBreaker` is the classic three-state machine, per target:

* **closed** — traffic flows; consecutive failures are counted and
  ``failure_threshold`` of them open the breaker;
* **open** — the target is considered down.  Probes are suppressed until a
  capped-exponential-with-jitter backoff elapses (each consecutive open
  lengthens the wait, via the shared
  :class:`~repro.resilience.backoff.BackoffPolicy`);
* **half-open** — the backoff elapsed; exactly one probe is allowed.
  Success closes the breaker, failure re-opens it with a longer backoff.

:class:`HealthSupervisor` owns one breaker per registered target and a
probe function for each.  It can run its probe loop on a daemon thread
(:meth:`start`) or be driven synchronously (:meth:`probe_now` — the
deterministic test path).  The service registers one ``worker:<rank>``
target per TCP worker host; its probe is a ``ping`` round trip, which also
reconnects or respawns a dead host.

Metrics: ``dsr_breaker_state{target=…}`` (0 closed, 1 half-open, 2 open),
``dsr_breaker_transitions_total{target=…,to=…}`` and
``dsr_health_probes_total{target=…,outcome=…}``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.runtime import global_registry
from repro.resilience.backoff import BackoffPolicy

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

_STATE_GAUGE = {BREAKER_CLOSED: 0.0, BREAKER_HALF_OPEN: 1.0, BREAKER_OPEN: 2.0}

#: Default probe backoff: first re-probe half a second after an open, then
#: 1s, 2s, … capped at 30s — jittered so many breakers never synchronise
#: their probes.
DEFAULT_BREAKER_BACKOFF = BackoffPolicy(
    base_seconds=0.5, multiplier=2.0, cap_seconds=30.0, jitter=0.1
)


class CircuitBreaker:
    """Per-target closed/open/half-open failure accounting.

    ``clock`` is injectable (monotonic seconds) so tests drive the backoff
    window deterministically instead of sleeping through it.
    """

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        backoff: Optional[BackoffPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.backoff = backoff if backoff is not None else DEFAULT_BREAKER_BACKOFF
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._open_count = 0
        self._open_until = 0.0
        self._publish_state()

    # ------------------------------------------------------------------ #
    # observations
    # ------------------------------------------------------------------ #
    def record_failure(self) -> str:
        """Fold in one failure; returns the (possibly new) state."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN or (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._open_locked()
            return self._state

    def record_success(self) -> str:
        """Fold in one success; an open/half-open breaker closes."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state != BREAKER_CLOSED:
                self._transition(BREAKER_CLOSED)
                self._open_count = 0
            return self._state

    def _open_locked(self) -> None:
        self._open_count += 1
        self._open_until = self._clock() + self.backoff.delay(self._open_count)
        self._transition(BREAKER_OPEN)

    def allow_probe(self) -> bool:
        """May the caller touch the target right now?

        Closed: yes.  Open: only once the backoff window elapsed, which
        flips the breaker to half-open (the single allowed probe).
        Half-open: yes — the probe in flight is the caller's.
        """
        with self._lock:
            if self._state == BREAKER_OPEN:
                if self._clock() < self._open_until:
                    return False
                self._transition(BREAKER_HALF_OPEN)
            return True

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def is_open(self) -> bool:
        """True while traffic should avoid the target (open or half-open)."""
        with self._lock:
            return self._state != BREAKER_CLOSED

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    @property
    def open_count(self) -> int:
        with self._lock:
            return self._open_count

    def seconds_until_probe(self) -> float:
        with self._lock:
            if self._state != BREAKER_OPEN:
                return 0.0
            return max(0.0, self._open_until - self._clock())

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        registry = global_registry()
        if registry.enabled:
            registry.inc(
                "dsr_breaker_transitions_total", target=self.name, to=state
            )
        self._publish_state()

    def _publish_state(self) -> None:
        registry = global_registry()
        if registry.enabled:
            registry.set_gauge(
                "dsr_breaker_state", _STATE_GAUGE[self._state], target=self.name
            )


class _Target:
    __slots__ = ("name", "probe", "breaker")

    def __init__(self, name, probe, breaker) -> None:
        self.name = name
        self.probe = probe
        self.breaker = breaker


class HealthSupervisor:
    """Probes a set of named targets and drives their breakers.

    ``probe_interval_seconds`` is the cadence of the background loop (only
    used after :meth:`start`); ``failure_threshold`` / ``backoff`` / ``clock``
    parameterise every target's breaker identically.
    """

    def __init__(
        self,
        probe_interval_seconds: float = 1.0,
        failure_threshold: int = 3,
        backoff: Optional[BackoffPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if probe_interval_seconds <= 0:
            raise ValueError("probe_interval_seconds must be positive")
        self.probe_interval_seconds = probe_interval_seconds
        self._failure_threshold = failure_threshold
        self._backoff = backoff
        self._clock = clock
        self._targets: Dict[str, _Target] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def add_target(self, name: str, probe: Callable[[], bool]) -> CircuitBreaker:
        """Register ``name`` with its probe; returns the target's breaker.

        ``probe`` returns truthy for healthy (exceptions count as failures).
        """
        breaker = CircuitBreaker(
            name,
            failure_threshold=self._failure_threshold,
            backoff=self._backoff,
            clock=self._clock,
        )
        target = _Target(name, probe, breaker)
        with self._lock:
            if name in self._targets:
                raise ValueError(f"target {name!r} is already supervised")
            self._targets[name] = target
        return breaker

    def breaker(self, name: str) -> CircuitBreaker:
        with self._lock:
            return self._targets[name].breaker

    def target_names(self) -> List[str]:
        with self._lock:
            return sorted(self._targets)

    # ------------------------------------------------------------------ #
    # probing
    # ------------------------------------------------------------------ #
    def probe_now(self) -> Dict[str, bool]:
        """Probe every target once, synchronously; ``{name: healthy}``.

        Targets whose breaker is open and still inside its backoff window
        are *not* touched (that is the breaker's job: back off, don't
        hammer) and report unhealthy.
        """
        with self._lock:
            targets = list(self._targets.values())
        results: Dict[str, bool] = {}
        registry = global_registry()
        for target in targets:
            if not target.breaker.allow_probe():
                results[target.name] = False
                continue
            try:
                healthy = bool(target.probe())
            except Exception:
                healthy = False
            if registry.enabled:
                registry.inc(
                    "dsr_health_probes_total",
                    target=target.name,
                    outcome="ok" if healthy else "fail",
                )
            if healthy:
                target.breaker.record_success()
            else:
                target.breaker.record_failure()
            results[target.name] = healthy
        return results

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "HealthSupervisor":
        """Run :meth:`probe_now` every interval on a daemon thread."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="dsr-health-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.probe_interval_seconds):
            try:
                self.probe_now()
            except Exception:  # pragma: no cover - probes must not kill the loop
                pass

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """The ``health`` section of ``DSRService.stats()``."""
        with self._lock:
            targets = list(self._targets.values())
        return {
            "probe_interval_seconds": self.probe_interval_seconds,
            "running": self.running,
            "targets": {
                target.name: {
                    "state": target.breaker.state,
                    "consecutive_failures": target.breaker.consecutive_failures,
                    "opens": target.breaker.open_count,
                    "next_probe_seconds": round(
                        target.breaker.seconds_until_probe(), 3
                    ),
                }
                for target in targets
            },
        }


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "DEFAULT_BREAKER_BACKOFF",
    "CircuitBreaker",
    "HealthSupervisor",
]
