"""BackoffPolicy unit tests + the TcpExecutor reconnect-schedule regression.

The regression matters: the old reconnect loop slept ``backoff * attempt``,
so the *first* retry slept ``0.05 * 0 = 0`` seconds — a dead peer was
hammered immediately, with no cap and no jitter.  The tests pin both the
policy's deterministic sequence and the exact sleeps the executor performs.
"""

import pytest

from repro.cluster.executors import register_shard_loader
from repro.cluster.remote import TcpExecutor, WorkerHost, WorkerTransportError
from repro.resilience import BackoffPolicy


@register_shard_loader("backoff.none")
def _load_none(blob):
    return blob


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        policy = BackoffPolicy()
        assert policy.base_seconds == 0.05
        assert policy.cap_seconds == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_seconds": 0.0},
            {"base_seconds": -1.0},
            {"multiplier": 0.5},
            {"base_seconds": 2.0, "cap_seconds": 1.0},
            {"jitter": -0.1},
            {"jitter": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            BackoffPolicy().delay(0)


class TestSchedule:
    def test_never_zero_and_monotonic_base(self):
        policy = BackoffPolicy(base_seconds=0.05, cap_seconds=10.0, jitter=0.0)
        delays = policy.delays(6)
        assert all(d > 0 for d in delays)
        assert delays == (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)

    def test_cap_bounds_every_delay(self):
        policy = BackoffPolicy(base_seconds=0.1, cap_seconds=0.3, jitter=0.0)
        assert policy.delays(5) == (0.1, 0.2, 0.3, 0.3, 0.3)

    def test_jitter_only_stretches_within_bound(self):
        policy = BackoffPolicy(base_seconds=0.1, cap_seconds=1.0, jitter=0.25)
        plain = BackoffPolicy(base_seconds=0.1, cap_seconds=1.0, jitter=0.0)
        for attempt in range(1, 8):
            raw = plain.delay(attempt)
            jittered = policy.delay(attempt)
            assert raw <= jittered <= raw * 1.25

    def test_deterministic_per_seed(self):
        a = BackoffPolicy(seed=7).delays(8)
        b = BackoffPolicy(seed=7).delays(8)
        assert a == b
        # A different seed draws different jitter fractions somewhere.
        assert a != BackoffPolicy(seed=8).delays(8)


class TestTcpReconnectRegression:
    """The executor's reconnect sleeps must come from the shared policy."""

    def test_sleep_sequence_matches_policy_and_first_sleep_is_positive(
        self, monkeypatch
    ):
        host = WorkerHost(collect_deltas=False).start()
        executor = TcpExecutor(
            worker_hosts=[host.address],
            reconnect_attempts=5,
            reconnect_backoff_seconds=0.01,
            reconnect_backoff_cap_seconds=0.04,
        )
        executor.start(1)
        try:
            executor.hydrate_all(0, {0: None}, "backoff.none")
            # Kill the only host: every reconnect attempt now fails fast
            # (connection refused), so the loop walks its whole schedule.
            host.stop()
            sleeps = []
            monkeypatch.setattr(
                "repro.cluster.remote.time.sleep", lambda s: sleeps.append(s)
            )
            with pytest.raises(WorkerTransportError):
                executor.hydrate_all(1, {0: None}, "backoff.none")
        finally:
            executor.close()
        # attempts=5 → sleeps before attempts 1..4 (none before attempt 0).
        expected = list(executor._backoff.delays(4))
        assert sleeps == pytest.approx(expected)
        # The regression: the old linear schedule slept 0.0 first.
        assert min(sleeps) > 0
        # Capped (+ jitter headroom), and actually exponential early on.
        assert max(sleeps) <= 0.04 * 1.1
        assert sleeps[1] > sleeps[0]
