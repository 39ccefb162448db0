"""Typed failure vocabulary of the resilience layer."""

from __future__ import annotations

from typing import Optional


class DeadlineExceededError(RuntimeError):
    """A query overran its end-to-end ``deadline_ms`` budget.

    Raised (never returned) wherever the budget runs out — at admission, in
    the queue, after the wait for the engine, between step 1 and step 3,
    between stale-epoch retries, or inside a worker RPC whose socket
    timeout was derived from the remaining budget.  ``stage`` names that
    enforcement point, so callers and metrics
    (``dsr_deadline_exceeded_total{stage=…}``) can tell a query that never
    started from one that timed out mid-RPC.
    """

    def __init__(
        self,
        message: str,
        deadline_ms: Optional[float] = None,
        elapsed_ms: Optional[float] = None,
        stage: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms
        self.elapsed_ms = elapsed_ms
        self.stage = stage


__all__ = ["DeadlineExceededError"]
