"""Failure-domain supervision for the DSR serving stack.

Contract: everything that makes the distributed surface *survivable* lives
here, in one package the rest of the codebase imports from —

* :mod:`repro.resilience.errors` — the typed failure vocabulary
  (:class:`DeadlineExceededError`);
* :mod:`repro.resilience.backoff` — the shared capped-exponential-with-jitter
  :class:`BackoffPolicy` every retry loop draws its sleeps from (replacing
  ad-hoc ``backoff * attempt`` linear schedules, whose first retry slept
  zero seconds);
* :mod:`repro.resilience.deadline` — end-to-end query deadlines: a
  :class:`Deadline` captured once at admission and consulted before the
  engine run, between its steps, between stale-epoch retries and inside
  per-call RPC socket timeouts via the :func:`deadline_scope` /
  :func:`current_deadline` propagation pair;
* :mod:`repro.resilience.failpoints` — named, seeded, deterministic
  fault-injection sites (:func:`failpoint`) wired into the real failure
  seams (TCP RPC, hydration replay, worker dispatch, worker-side shard
  load, the service flush path), zero-cost when disabled.

A crashed worker is recovered by the call that meets it (the executor
reconnects, respawns and replays its hydrations); nothing probes workers
between calls.  See ``docs/RESILIENCE.md`` for the failpoint catalog, the
deadline semantics and the degraded-mode matrix.
"""

from repro.resilience.backoff import BackoffPolicy
from repro.resilience.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.errors import DeadlineExceededError
from repro.resilience.failpoints import (
    FailPointError,
    FailPointRegistry,
    FailPointSpec,
    failpoint,
    global_failpoints,
    set_global_failpoints,
    use_failpoints,
)

__all__ = [
    "BackoffPolicy",
    "Deadline",
    "DeadlineExceededError",
    "FailPointError",
    "FailPointRegistry",
    "FailPointSpec",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "failpoint",
    "global_failpoints",
    "set_global_failpoints",
    "use_failpoints",
]
