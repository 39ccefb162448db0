"""DSRClient retry discipline + stuck-thread accounting at shutdown.

The client may blindly re-send *idempotent* requests after a reset, but an
``UpdateRequest`` that may have reached the server must never be re-sent —
a blind retry could apply the update twice.  The fake server below counts
exactly how many request frames arrived, which is the whole point.
"""

import socket
import threading
import time

import pytest

from repro.obs import use_registry
from repro.service.protocol import (
    ErrorResponse,
    StatsRequest,
    UpdateRequest,
    pack_frame,
)
from repro.service.server import DSRClient, _count_stuck_threads
from tests.service.wire import read_frames


class FlakyServer:
    """Binary-framed fake server: drops the first ``fail_first`` requests
    (connection closed before any reply), answers the rest.  ``received``
    counts request frames that actually arrived at the server."""

    def __init__(self, fail_first=0, reply=True):
        self.fail_first = fail_first
        self.reply = reply
        self.received = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                conn.settimeout(5.0)
                frames, _closed = read_frames(conn, expect=1)
                if not frames:
                    continue
                self.received.append(frames[0][0])
                if not self.reply:
                    # Hold the connection open without answering until the
                    # client's own timeout fires.
                    self._stop.wait(5.0)
                elif len(self.received) > self.fail_first:
                    conn.sendall(pack_frame(ErrorResponse("TestReply", "ok")))
                # else: close without replying

    def close(self):
        self._stop.set()
        self._listener.close()
        self._thread.join(timeout=5.0)


class TestClientRetryDiscipline:
    def test_update_that_may_have_reached_the_server_is_never_resent(self):
        server = FlakyServer(fail_first=1)
        try:
            client = DSRClient(
                server.host, server.port, retries=3, retry_backoff_seconds=0.01
            )
            with pytest.raises(ConnectionError, match="not retrying"):
                client.request(UpdateRequest(op="flush"))
            client.close()
            # The whole point: exactly ONE frame left the client.  A blind
            # retry here would let the server apply the update twice.
            assert len(server.received) == 1
        finally:
            server.close()

    def test_idempotent_request_is_retried_to_success(self):
        server = FlakyServer(fail_first=1)
        try:
            client = DSRClient(
                server.host, server.port, retries=3, retry_backoff_seconds=0.01
            )
            response = client.request(StatsRequest())
            assert isinstance(response, ErrorResponse)
            assert response.error == "TestReply"
            # Attempt 1 was dropped after the send; attempt 2 re-sent it.
            assert len(server.received) == 2
            assert client.reconnects >= 1
            client.close()
        finally:
            server.close()

    def test_timeout_is_never_retried(self):
        server = FlakyServer(reply=False)
        try:
            client = DSRClient(
                server.host,
                server.port,
                request_timeout=0.2,
                retries=3,
                retry_backoff_seconds=0.01,
            )
            with pytest.raises(TimeoutError, match="no response"):
                client.request(StatsRequest())
            client.close()
            # The server may still be executing the request: one frame only.
            assert len(server.received) == 1
        finally:
            server.close()


class TestStuckThreadAccounting:
    def test_surviving_thread_is_counted_and_published(self):
        release = threading.Event()
        blocked = threading.Thread(
            target=release.wait, name="wedged-worker", daemon=True
        )
        blocked.start()
        try:
            with use_registry() as registry:
                assert _count_stuck_threads([blocked], "test.close") == 1
                assert (
                    registry.counter_value(
                        "dsr_shutdown_stuck_threads", where="test.close"
                    )
                    == 1
                )
        finally:
            release.set()
            blocked.join(timeout=5.0)

    def test_clean_shutdown_counts_nothing(self):
        done = threading.Thread(target=lambda: None)
        done.start()
        done.join(timeout=5.0)
        with use_registry() as registry:
            assert _count_stuck_threads([done], "test.close") == 0
            assert (
                registry.counter_value(
                    "dsr_shutdown_stuck_threads", where="test.close"
                )
                == 0
            )


class TestClientRetryBackoffIsBounded:
    def test_connect_failures_exhaust_with_a_typed_error(self):
        # A listener that was closed immediately: every connect is refused,
        # the client's retry loop must exhaust and fail fast (no hang).
        probe = socket.create_server(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        started = time.monotonic()
        with pytest.raises((ConnectionError, OSError)):
            DSRClient(host, port, retries=2, retry_backoff_seconds=0.01)
        assert time.monotonic() - started < 5.0
