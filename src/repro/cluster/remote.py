"""Remote shard workers: ``executor="processes"`` and ``executor="tcp"``.

The paper's DSR system is a master/slave deployment where each slave holds
one graph partition and answers local/remote steps over the network.  This
module is that contract, written once:

:class:`WorkerHost`
    The slave: epoch-keyed hydrated shards (a
    :class:`~repro.cluster.executors.ShardStore`) and one request handler for
    registered shard tasks.  Start one per slave (``repro-dsr worker-host``)
    and point an engine at it, or let an executor fork its own.

:class:`TcpExecutor`
    The master: the :class:`~repro.cluster.executors.ExecutorBackend` that
    talks to one worker host per rank over one socket per rank — fan-out,
    deadlines, reconnect with hydration replay and piggybacked metrics
    deltas.  With no ``worker_hosts`` it **manages** its own fleet: one
    forked, listening :class:`WorkerHost` per rank on localhost.  With
    ``worker_hosts=["host:port", ...]`` it connects to **external** hosts,
    rank ``r`` mapping to ``hosts[r % len(hosts)]``.  A managed host also
    holds one end of a socketpair whose other end only the master keeps
    open: it stops when that *lifeline* reads EOF, so a killed master takes
    its hosts with it.

:class:`ProcessExecutor`
    The same executor; only :meth:`~TcpExecutor._open` differs.  Each rank's
    link is one end of a ``socket.socketpair()`` whose other end a forked
    child serves with :class:`WorkerHost`'s connection loop — no listening
    port.

Hydration
---------
Both executors ship the same *self-contained* shard blobs
(:func:`repro.core.shard_exec.build_shard_blob`): the CSR arrays travel
inside the pickled blob, one transfer per rank per epoch — what a slave on
another machine receives over the network.

Failure handling
----------------
Every hydrate message is cached per rank.  When a send or receive fails,
the executor re-opens the rank's link — respawning a dead managed host, or
forking a fresh ``processes`` child — **replays the cached hydrations** so
the substitute holds every retained epoch, then retries the in-flight
message.  An active query deadline becomes each call's socket timeout, so a
wedged worker yields a typed
:class:`~repro.resilience.errors.DeadlineExceededError`, never a hang.

Wire format: ``[u64 length][pickle]`` per message, both directions.
Requests are ``("task", rank, task, epoch, payload)``,
``("hydrate", rank, epoch, loader, blob, retire_below)``, ``("stop",)``
(close this connection) and ``("shutdown",)`` (stop the host, if it allows
it); replies are ``("ok", result, seconds, delta)``,
``("stale", epoch, available, delta)`` or ``("error", kind, traceback)``.
This is a trusted-cluster transport (pickle!), matching the paper's
deployment model; do not expose worker hosts to untrusted networks.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import struct
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.executors import (
    DEFAULT_TASK_MODULES,
    ExecutorBackend,
    ShardStore,
    ShardTaskError,
    StaleEpochError,
    _import_task_modules,
)
from repro.obs import runtime as obs_runtime
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.deadline import current_deadline, deadline_scope
from repro.resilience.failpoints import failpoint

_LENGTH = struct.Struct(">Q")

#: Cap on one RPC message (128 MiB) — a corrupted length prefix should fail
#: fast, not allocate the universe.
MAX_RPC_BYTES = 128 * 1024 * 1024


class WorkerTransportError(ConnectionError):
    """A worker RPC failed after reconnect attempts were exhausted."""


# ---------------------------------------------------------------------- #
# framing helpers
# ---------------------------------------------------------------------- #
def _send_obj(sock: socket.socket, obj: Any) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LENGTH.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise EOFError("worker connection closed")
        chunks.extend(chunk)
    return bytes(chunks)


def _recv_obj(sock: socket.socket) -> Any:
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_RPC_BYTES:
        raise ConnectionError(f"rpc message of {length} bytes exceeds the cap")
    return pickle.loads(_recv_exact(sock, length))


def parse_host_port(spec: str) -> Tuple[str, int]:
    """Parse ``"host:port"`` (the ``worker_hosts`` entry format)."""
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"worker host spec {spec!r} is not of the form 'host:port'"
        )
    return host, int(port)


# ---------------------------------------------------------------------- #
# the worker host
# ---------------------------------------------------------------------- #
class WorkerHost:
    """A shard-task server: hydrate over a connection, query forever.

    ``port=None`` opens no listener: the host then serves only the
    connection handed to it (a ``processes`` child's socketpair end).
    ``allow_shutdown`` lets a ``("shutdown",)`` message stop the whole host
    (managed children use it); external hosts default to ignoring it so one
    departing client cannot kill a shared slave.  ``collect_deltas=False``
    turns off metrics-delta shipping for hosts embedded in the engine's own
    process (tests), where recordings already land in the master registry
    and shipping them would double-count.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = 0,
        task_modules: Sequence[str] = DEFAULT_TASK_MODULES,
        allow_shutdown: bool = False,
        collect_deltas: bool = True,
    ) -> None:
        self._task_modules = tuple(task_modules)
        self._allow_shutdown = allow_shutdown
        self._collect_deltas = collect_deltas
        self._socket: Optional[socket.socket] = None
        self.address: Optional[Tuple[str, int]] = None
        if port is not None:
            self._socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._socket.bind((host, port))
            self._socket.listen(64)
            self.address = self._socket.getsockname()[:2]
        self._store = ShardStore()
        self._stopped = threading.Event()
        self._acceptor: Optional[threading.Thread] = None
        self._connections: set = set()
        self._connections_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------- #
    def start(self) -> "WorkerHost":
        """Accept connections on a background thread."""
        _import_task_modules(self._task_modules)
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="worker-host-acceptor", daemon=True
        )
        self._acceptor.start()
        return self

    def serve_forever(self) -> None:
        """Foreground entry point (the CLI's ``worker-host`` command)."""
        self.start()
        self._stopped.wait()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._stopped.wait(timeout)

    def stop(self) -> None:
        """Stop accepting and release every hydrated shard."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self._socket is not None:
            try:
                # Wake a blocked accept() so the kernel socket actually
                # leaves LISTEN; close() alone would leave the port bound.
                self._socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._socket.close()
            except OSError:
                pass
        # Close live connections too: a stopped host must vanish from its
        # clients' point of view (EOF ⇒ they reconnect elsewhere), never
        # answer "stale" out of a cleared shard map.
        with self._connections_lock:
            connections, self._connections = set(self._connections), set()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        self._store.clear()

    def __enter__(self) -> "WorkerHost":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving --------------------------------------------------------- #
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                connection, _ = self._socket.accept()
            except OSError:
                break
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_connection, args=(connection,), daemon=True
            ).start()

    def _delta(self):
        return obs_runtime.collect_worker_delta() if self._collect_deltas else None

    def _serve_connection(self, connection: socket.socket) -> None:
        with self._connections_lock:
            self._connections.add(connection)
        try:
            self._serve_connection_inner(connection)
        finally:
            with self._connections_lock:
                self._connections.discard(connection)

    def _serve_connection_inner(self, connection: socket.socket) -> None:
        with connection:
            while not self._stopped.is_set():
                try:
                    message = _recv_obj(connection)
                except (EOFError, OSError, ConnectionError, pickle.PickleError):
                    break
                if self._stopped.is_set():
                    break  # stopping: EOF, never a reply from cleared shards
                kind = message[0]
                if kind == "stop":
                    break  # close this connection only
                if kind == "shutdown":
                    if self._allow_shutdown:
                        try:
                            _send_obj(connection, ("ok", None, 0.0, None))
                        except OSError:
                            pass
                        self.stop()
                    break
                try:
                    reply = self._handle(message)
                except StaleEpochError as exc:
                    # Raised before dispatch (epoch not held) or by a task
                    # that finds its shard stale mid-execution; either way
                    # the caller re-captures the epoch and retries.
                    reply = ("stale", exc.epoch, list(exc.available), self._delta())
                except Exception:
                    reply = ("error", "TaskError", traceback.format_exc())
                try:
                    _send_obj(connection, reply)
                except OSError:
                    break

    def _handle(self, message: Tuple) -> Tuple:
        kind = message[0]
        if kind == "hydrate":
            _, rank, epoch, loader_name, blob, retire_below = message
            self._store.hydrate(rank, epoch, blob, loader_name, retire_below)
            return ("ok", None, 0.0, self._delta())
        if kind == "task":
            _, rank, task_name, epoch, payload = message
            result, seconds = self._store.run(rank, epoch, task_name, payload)
            return ("ok", result, seconds, self._delta())
        return ("error", "ProtocolError", f"unknown command {kind!r}")

    @property
    def epochs_held(self) -> Dict[int, Tuple[int, ...]]:
        """``{rank: epochs}`` currently hydrated (introspection for tests)."""
        return self._store.epochs_held()


def _listening_host_main(
    lifeline: socket.socket, inherited: Sequence[socket.socket], task_modules: Sequence[str]
) -> None:
    """Managed ``tcp`` child: serve one listening host until the master
    lets go of ``lifeline``.

    The host's address goes back over ``lifeline``; afterwards the child
    only waits for its EOF.  The fork copied the master's ends of every
    link and lifeline, this child's own included; closing them here leaves
    the master as the one holder, so its exit (or close) reaches the child.
    """
    for other in inherited:
        other.close()
    obs_runtime.reset_for_worker()
    host = WorkerHost(task_modules=task_modules, allow_shutdown=True).start()
    _send_obj(lifeline, host.address)
    threading.Thread(
        target=_stop_on_eof, args=(lifeline, host), name="worker-host-lifeline", daemon=True
    ).start()
    host.wait()


def _stop_on_eof(lifeline: socket.socket, host: WorkerHost) -> None:
    try:
        lifeline.recv(1)  # the master never writes: this returns at its EOF
    except OSError:
        pass
    host.stop()


def _paired_host_main(
    sock: socket.socket, inherited: Sequence[socket.socket], task_modules: Sequence[str]
) -> None:
    """``processes`` child: serve one socketpair end until stop or EOF.

    The fork copied the master's ends of every link, this child's own
    included; closing them here lets the master's close reach each child
    as EOF.
    """
    for other in inherited:
        other.close()
    _import_task_modules(task_modules)
    # Drop the fork-inherited copy of the master's metric state: without
    # this the child would ship the master's pre-fork totals as its delta.
    obs_runtime.reset_for_worker()
    host = WorkerHost(port=None, task_modules=task_modules, allow_shutdown=True)
    try:
        host._serve_connection(sock)
    finally:
        host.stop()


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def _stop_child(process, grace: float) -> None:
    """Reap a managed child: wait ``grace`` seconds, then terminate, then kill."""
    process.join(grace)
    if process.is_alive():
        process.terminate()
        process.join(1.0)
    if process.is_alive():  # pragma: no cover - SIGTERM handled and ignored
        process.kill()
        process.join()


# ---------------------------------------------------------------------- #
# the executor
# ---------------------------------------------------------------------- #
class TcpExecutor(ExecutorBackend):
    """Shard phases over one socket per rank to worker hosts (see module
    docstring)."""

    name = "tcp"
    wants_sharded_queries = True

    def __init__(
        self,
        worker_hosts: Optional[Sequence[Any]] = None,
        task_modules: Sequence[str] = DEFAULT_TASK_MODULES,
        connect_timeout: float = 5.0,
        reconnect_attempts: int = 20,
        reconnect_backoff_seconds: float = 0.05,
        reconnect_backoff_cap_seconds: float = 1.0,
    ) -> None:
        self._task_modules = tuple(task_modules)
        self._connect_timeout = connect_timeout
        self._reconnect_attempts = reconnect_attempts
        #: Reconnect sleeps come from the shared capped-exponential policy:
        #: a linear schedule retried a dead peer with no ceiling and no
        #: jitter (synchronised stampedes).
        self._backoff = BackoffPolicy(
            base_seconds=reconnect_backoff_seconds,
            cap_seconds=max(reconnect_backoff_cap_seconds, reconnect_backoff_seconds),
        )
        #: Parsed external host list, or None for a managed local fleet.
        self._external: Optional[List[Tuple[str, int]]] = None
        if worker_hosts is not None:
            specs = list(worker_hosts)
            if not specs:
                raise ValueError("worker_hosts must not be empty when given")
            self._external = [
                spec if isinstance(spec, tuple) else parse_host_port(spec)
                for spec in specs
            ]
        self._addresses: Dict[int, Tuple[str, int]] = {}
        self._sockets: Dict[int, socket.socket] = {}
        self._locks: Dict[int, threading.Lock] = {}
        #: rank -> the forked child serving that rank (none for external hosts).
        self._managed: Dict[int, Any] = {}
        #: rank -> the master's end of a managed ``tcp`` host's lifeline.
        self._lifelines: Dict[int, socket.socket] = {}
        self._dispatch: Optional[ThreadPoolExecutor] = None
        # Re-entrant: a ``processes`` link is opened (and its child forked)
        # both at start, under this lock, and from the reconnect path.
        self._lifecycle = threading.RLock()
        self._closed = False
        self._started = False
        #: rank -> {epoch: last hydrate message}, replayed into a re-opened
        #: link so a crash is invisible above the executor.
        self._hydration_cache: Dict[int, Dict[int, Tuple]] = {}
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # -- links ----------------------------------------------------------- #
    def _fork(self, rank: int, target, *args) -> Any:
        """Fork ``target(*args)`` as ``rank``'s managed child, reaping the
        child it replaces."""
        with self._lifecycle:
            if self._closed:
                raise WorkerTransportError(f"worker {rank}: executor is closed")
            previous = self._managed.pop(rank, None)
            if previous is not None:
                _stop_child(previous, grace=0.0)
                registry = obs_runtime.global_registry()
                if registry.enabled:
                    registry.inc("dsr_worker_respawns_total")
            process = _fork_context().Process(
                target=target, args=args, name=f"shard-worker-{rank}", daemon=True
            )
            process.start()
            self._managed[rank] = process
            return process

    def _open(self, rank: int) -> socket.socket:
        """Connect to ``rank``'s host, (re)spawning a managed one that is
        not running."""
        if self._external is not None:
            self._addresses[rank] = self._external[rank % len(self._external)]
        else:
            process = self._managed.get(rank)
            if process is None or not process.is_alive():
                self._addresses[rank] = self._spawn_listening_host(rank)
        sock = socket.create_connection(
            self._addresses[rank], timeout=self._connect_timeout
        )
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _spawn_listening_host(self, rank: int) -> Tuple[str, int]:
        """Fork ``rank``'s managed host on a fresh lifeline; its address."""
        with self._lifecycle:
            ours, theirs = socket.socketpair()
            try:
                inherited = [ours, *self._sockets.values(), *self._lifelines.values()]
                process = self._fork(
                    rank, _listening_host_main, theirs, inherited, self._task_modules
                )
            except BaseException:
                ours.close()
                raise
            finally:
                theirs.close()
            previous = self._lifelines.get(rank)
            self._lifelines[rank] = ours
        if previous is not None:
            previous.close()
        try:
            ours.settimeout(10.0)
            address = tuple(_recv_obj(ours))
            ours.settimeout(None)
        except (EOFError, OSError) as exc:  # pragma: no cover - startup hang
            _stop_child(process, grace=0.0)
            raise WorkerTransportError(f"worker host {rank} failed to start") from exc
        return address

    def _link(self, rank: int) -> socket.socket:
        sock = self._open(rank)
        with self._lifecycle:
            if self._closed:
                sock.close()
                raise WorkerTransportError(f"worker {rank}: executor is closed")
            self._sockets[rank] = sock
        return sock

    def _drop_socket(self, rank: int) -> None:
        """Forget and close ``rank``'s socket (its stream position is
        unknowable after a mid-frame failure)."""
        with self._lifecycle:
            stale = self._sockets.pop(rank, None)
        if stale is not None:
            try:
                stale.close()
            except OSError:
                pass

    # -- lifecycle ------------------------------------------------------- #
    def _ensure_started(self) -> None:
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._started:
                return
            # Import the task modules in the parent before forking: the
            # children then resolve them straight from the inherited
            # sys.modules instead of running a real import, which could
            # deadlock on an import lock another parent thread held at fork
            # time (e.g. another engine's maintenance thread).
            _import_task_modules(self._task_modules)
            for rank in range(self.num_workers):
                self._locks[rank] = threading.Lock()
                self._link(rank)
            self._dispatch = ThreadPoolExecutor(
                max_workers=max(2, 2 * self.num_workers),
                thread_name_prefix="shard-dispatch",
            )
            self._started = True

    def close(self) -> None:
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            sockets, self._sockets = self._sockets, {}
            managed, self._managed = self._managed, {}
            lifelines, self._lifelines = self._lifelines, {}
            dispatch, self._dispatch = self._dispatch, None
            self._hydration_cache.clear()
        for rank, sock in sockets.items():
            # Serialise with any in-flight _call_worker on this rank: an
            # unlocked write could interleave with a request mid-stream and
            # corrupt the length-prefixed framing the host reads.  If a call
            # holds the lock past the timeout, skip the polite goodbye and
            # just close the socket.
            lock = self._locks.get(rank)
            if lock is None or lock.acquire(timeout=2.0):
                try:
                    # Managed hosts are ours to stop; external hosts just
                    # see this client depart.
                    _send_obj(
                        sock, ("shutdown",) if rank in managed else ("stop",)
                    )
                except OSError:
                    pass
                finally:
                    if lock is not None:
                        lock.release()
            try:
                sock.close()
            except OSError:
                pass
        for lifeline in lifelines.values():
            lifeline.close()
        for process in managed.values():
            _stop_child(process, grace=2.0)
        if dispatch is not None:
            dispatch.shutdown(wait=False)

    def __del__(self) -> None:  # pragma: no cover - GC-time cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- transport ------------------------------------------------------- #
    def _reconnect_locked(self, rank: int, message: Tuple) -> Any:
        """Re-open ``rank``'s link, replay its cached hydrations and retry
        ``message``, once per attempt (rank lock held).

        Every attempt re-opens through :meth:`_open`, so a worker killed
        again mid-replay (the crash-during-hydration chaos case) gets a
        fresh substitute on the next attempt instead of the loop
        reconnecting forever to a corpse.  Sleeps come from the
        capped-exponential-jitter policy, and an active query deadline
        bounds both the sleeps and the replayed RPCs.
        """
        self._drop_socket(rank)
        deadline = current_deadline()
        last_error: Optional[BaseException] = None
        for attempt in range(self._reconnect_attempts):
            if attempt:
                if deadline is not None and deadline.expired:
                    raise deadline.exceeded("reconnect") from last_error
                time.sleep(self._backoff.delay(attempt))
            if self._closed:
                raise WorkerTransportError(f"worker {rank} died") from last_error
            try:
                sock = self._link(rank)
            except (EOFError, OSError, ConnectionError) as exc:
                last_error = exc
                continue
            registry = obs_runtime.global_registry()
            if registry.enabled:
                registry.inc("dsr_worker_reconnects_total")
            # Snapshot per attempt: a substitute needs every epoch hydrated
            # so far, including one cached mid-crash.
            with self._lifecycle:
                replay = sorted(self._hydration_cache.get(rank, {}).items())
            try:
                if deadline is not None:
                    sock.settimeout(max(deadline.remaining_seconds(), 0.001))
                for _, hydrate_message in replay:
                    failpoint("executor.hydrate.replay", rank=rank, executor=self.name)
                    _send_obj(sock, hydrate_message)
                    _recv_obj(sock)
                _send_obj(sock, message)
                reply = _recv_obj(sock)
                if deadline is not None:
                    sock.settimeout(None)
            except socket.timeout as exc:
                self._drop_socket(rank)
                if deadline is not None:
                    raise deadline.exceeded("reconnect") from exc
                last_error = exc
                continue
            except (EOFError, OSError, ConnectionError) as exc:
                last_error = exc
                self._drop_socket(rank)
                continue
            return reply
        raise WorkerTransportError(
            f"worker {rank} at {self._addresses.get(rank, 'its socketpair')} "
            f"unreachable after {self._reconnect_attempts} attempts: {last_error}"
        ) from last_error

    def _set_inflight(self, delta: int) -> None:
        registry = obs_runtime.global_registry()
        with self._inflight_lock:
            self._inflight += delta
            value = self._inflight
        if registry.enabled:
            registry.set_gauge("dsr_rpc_inflight", float(value))

    def _call_worker(self, rank: int, message: Tuple) -> Tuple[Any, float]:
        self._set_inflight(1)
        deadline = current_deadline()
        try:
            with self._locks[rank]:
                sock = self._sockets.get(rank)
                try:
                    if sock is None:
                        raise ConnectionError("not connected")
                    failpoint("executor.call", rank=rank, kind=message[0], executor=self.name)
                    if deadline is not None:
                        remaining = deadline.remaining_seconds()
                        if remaining <= 0:
                            raise deadline.exceeded("rpc")
                        # The remaining budget becomes this call's socket
                        # timeout: a wedged worker yields a typed deadline
                        # error, not an indefinite recv.
                        sock.settimeout(remaining)
                    _send_obj(sock, message)
                    failpoint("executor.recv", rank=rank, kind=message[0], executor=self.name)
                    reply = _recv_obj(sock)
                    if deadline is not None:
                        sock.settimeout(None)
                # socket.timeout subclasses OSError: match it before the
                # reconnect clause, and drop the socket — after a mid-frame
                # timeout its stream position is unknowable.  The next call
                # re-opens the link (a ``processes`` child still wedged in
                # the task is then replaced).
                except socket.timeout as exc:
                    self._drop_socket(rank)
                    if deadline is None:  # pragma: no cover - no timeout armed
                        raise
                    raise deadline.exceeded("rpc") from exc
                except (EOFError, OSError, ConnectionError):
                    reply = self._reconnect_locked(rank, message)
        finally:
            self._set_inflight(-1)
        kind = reply[0]
        if len(reply) > 3 and reply[3] is not None:
            # Piggybacked worker metrics delta: fold into the master registry
            # before any control flow so stale replies don't lose metrics.
            obs_runtime.absorb_delta(reply[3])
        if kind == "ok":
            return reply[1], reply[2]
        if kind == "stale":
            raise StaleEpochError(rank, reply[1], reply[2])
        task = str(message[2]) if len(message) > 2 else "?"
        raise ShardTaskError(rank, task, reply[2])

    def _scoped_call(self, deadline, rank: int, message: Tuple) -> Tuple[Any, float]:
        # Dispatch-pool threads do not inherit the submitting thread's
        # deadline scope (it is a threading.local); re-enter it explicitly.
        with deadline_scope(deadline):
            return self._call_worker(rank, message)

    def _fan_out(self, messages: Mapping[int, Tuple]) -> Dict[int, Tuple[Any, float]]:
        self._ensure_started()
        if len(messages) == 1:
            ((rank, message),) = messages.items()
            return {rank: self._call_worker(rank, message)}
        assert self._dispatch is not None
        deadline = current_deadline()
        futures = {
            rank: self._dispatch.submit(self._scoped_call, deadline, rank, message)
            for rank, message in messages.items()
        }
        results: Dict[int, Tuple[Any, float]] = {}
        first_error: Optional[BaseException] = None
        for rank, future in futures.items():
            try:
                results[rank] = future.result()
            except BaseException as exc:  # collect all before raising
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    # -- backend API ----------------------------------------------------- #
    def run_shard_phase(
        self, task: str, epoch: Optional[int], payloads: Mapping[int, Any]
    ) -> Dict[int, Tuple[Any, float]]:
        return self._fan_out(
            {
                rank: ("task", rank, task, epoch, payload)
                for rank, payload in payloads.items()
            }
        )

    def _remember_hydration(
        self, rank: int, epoch: int, message: Tuple, retire_below: Optional[int]
    ) -> None:
        """Cache the hydrate message for replay, pruned like the worker."""
        with self._lifecycle:
            per_rank = self._hydration_cache.setdefault(rank, {})
            per_rank[epoch] = message
            if retire_below is not None:
                for old in [e for e in per_rank if e < retire_below]:
                    del per_rank[old]

    def hydrate(
        self,
        rank: int,
        epoch: int,
        blob: Any,
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        self.hydrate_all(epoch, {rank: blob}, loader, retire_below=retire_below)

    def hydrate_all(
        self,
        epoch: int,
        blobs: Mapping[int, Any],
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        # One round-trip per worker, overlapped through the dispatch pool:
        # epoch publication latency stays ~one transfer, not N.
        self._ensure_started()
        messages = {}
        for rank, blob in blobs.items():
            failpoint("executor.hydrate", rank=rank, epoch=epoch, executor=self.name)
            messages[rank] = ("hydrate", rank, epoch, loader, blob, retire_below)
            self._remember_hydration(rank, epoch, messages[rank], retire_below)
        self._fan_out(messages)

    # -- introspection ---------------------------------------------------- #
    @property
    def worker_addresses(self) -> Dict[int, Tuple[str, int]]:
        return dict(self._addresses)


class ProcessExecutor(TcpExecutor):
    """One forked child per rank on a socketpair."""

    name = "processes"

    def __init__(self, worker_hosts: Optional[Sequence[Any]] = None, **options: Any) -> None:
        """``options`` are :class:`TcpExecutor`'s; ``worker_hosts`` is refused.

        This executor forks its own workers; external hosts are ``tcp``'s.
        """
        if worker_hosts is not None:
            raise ValueError(
                "the processes executor forks its own workers; "
                "worker_hosts needs the tcp executor"
            )
        super().__init__(**options)

    def _open(self, rank: int) -> socket.socket:
        """Fork a fresh child serving ``rank`` on one end of a socketpair,
        replacing the rank's previous child."""
        ours, theirs = socket.socketpair()
        try:
            with self._lifecycle:
                inherited = [ours, *self._sockets.values()]
                self._fork(
                    rank, _paired_host_main, theirs, inherited, self._task_modules
                )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        return ours


__all__ = [
    "MAX_RPC_BYTES",
    "ProcessExecutor",
    "TcpExecutor",
    "WorkerHost",
    "WorkerTransportError",
    "parse_host_port",
]
