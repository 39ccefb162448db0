"""End-to-end query deadlines.

A :class:`Deadline` is captured **once**, at admission, from the query's
relative ``deadline_ms`` budget and carried — not recomputed — through every
layer below: the service checks it before dequeuing and once it holds the
engine, the core query loop checks it between step 1 and step 3 and between
stale-epoch retries, and the remote executor (``processes`` and ``tcp``)
converts the *remaining* budget into per-call socket timeouts so one wedged
worker turns into a typed
:class:`~repro.resilience.errors.DeadlineExceededError` instead of an
indefinite hang.

Propagation
-----------
Layers do not thread the deadline through every signature.  The service
enters a :func:`deadline_scope` around request execution and lower layers
ask :func:`current_deadline` — a thread-local, because the serving stack
hops threads explicitly (worker pool, RPC dispatch pool) and each hop
re-enters the scope with the deadline it captured at submission
(the remote executor's ``_fan_out`` does exactly that).  When no scope is active
``current_deadline()`` is ``None`` and every check is a no-op, so
deadline-free traffic pays one attribute read.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.runtime import global_registry
from repro.resilience.errors import DeadlineExceededError


class Deadline:
    """An absolute monotonic expiry derived from a relative ms budget."""

    __slots__ = ("deadline_ms", "started_at", "expires_at")

    def __init__(self, deadline_ms: float, started_at: Optional[float] = None) -> None:
        if deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        self.deadline_ms = float(deadline_ms)
        self.started_at = time.monotonic() if started_at is None else started_at
        self.expires_at = self.started_at + self.deadline_ms / 1000.0

    @classmethod
    def from_query(cls, query) -> Optional["Deadline"]:
        """The query's deadline, started *now* — ``None`` when it has none."""
        budget = getattr(query, "deadline_ms", None)
        return cls(budget) if budget else None

    @property
    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started_at) * 1000.0

    def remaining_seconds(self) -> float:
        """Seconds left in the budget (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def exceeded(self, stage: str) -> DeadlineExceededError:
        """Build (and count) the typed error for this deadline at ``stage``."""
        registry = global_registry()
        if registry.enabled:
            registry.inc("dsr_deadline_exceeded_total", stage=stage)
        elapsed = self.elapsed_ms
        return DeadlineExceededError(
            f"query exceeded its {self.deadline_ms:g}ms deadline "
            f"after {elapsed:.1f}ms ({stage})",
            deadline_ms=self.deadline_ms,
            elapsed_ms=elapsed,
            stage=stage,
        )

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceededError` when the budget is spent."""
        if self.expired:
            raise self.exceeded(stage)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Deadline {self.deadline_ms:g}ms "
            f"remaining={self.remaining_seconds() * 1000.0:.1f}ms>"
        )


_scope = threading.local()


def current_deadline() -> Optional[Deadline]:
    """The deadline of the request this thread is executing, if any."""
    return getattr(_scope, "deadline", None)


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Make ``deadline`` visible to everything this thread calls.

    ``None`` scopes are legal and simply shadow any outer scope — a worker
    thread serving a deadline-free request after a deadlined one must not
    inherit the previous request's expiry.
    """
    previous = getattr(_scope, "deadline", None)
    _scope.deadline = deadline
    try:
        yield deadline
    finally:
        _scope.deadline = previous


def check_deadline(stage: str) -> None:
    """Check the current scope's deadline; a no-op when none is active."""
    deadline = getattr(_scope, "deadline", None)
    if deadline is not None:
        deadline.check(stage)


__all__ = [
    "Deadline",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
]
