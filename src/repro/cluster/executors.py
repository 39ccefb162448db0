"""Pluggable worker executors: how cluster phases actually run.

The simulated cluster models *what* the paper's master/slave deployment
computes (phases, messages, rounds); an :class:`ExecutorBackend` decides *how*
the per-worker work of a phase is executed on the local machine:

``serial``
    One worker after another on the calling thread.  Zero overhead, fully
    deterministic — the default, and the right choice for index builds and
    micro-benchmarks of the algorithmic costs.

``threads``
    A persistent thread pool with one slot per worker.  Python-level work is
    GIL-bound, so the speed-up is limited, but phases that wait (I/O, lock
    handoffs) overlap, and the thread pool is reused across phases instead of
    being rebuilt per call.

``processes``
    One long-lived OS process per worker, each *hydrated once per epoch* with
    its partition's immutable CSR shard (see :mod:`repro.core.shard_exec`).
    Phases are expressed as named **shard tasks** — registered module-level
    functions ``task(shard, payload) -> result`` — so only small payloads and
    results cross the process boundary, never the graph.  This is real
    parallelism: four workers burn four cores.

Closures vs. shard tasks
------------------------
``run_phase`` executes arbitrary closures and is supported by the in-process
executors (``serial``, ``threads``).  Process workers cannot receive closures
over shared state, so :class:`ProcessExecutor` runs closure phases at the
master (serially) and reserves the worker processes for shard tasks — the
query hot path.  ``run_shard_phase`` executes a registered task against the
hydrated shard of a given *epoch* on every requested worker; asking for an
epoch a worker no longer holds raises :class:`StaleEpochError`, which callers
handle by re-reading the current epoch and retrying.

Every phase result carries the worker's *self-measured* compute seconds
(excluding dispatch/IPC), which feed the simulated-parallel timing model; the
cluster additionally records the real wall-clock of the whole phase.
"""

from __future__ import annotations

import importlib
import threading
import time
import traceback
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.obs import runtime as obs_runtime
from repro.resilience.failpoints import failpoint

#: Names accepted by :func:`make_executor` (and ``DSRConfig.executor``).
#: ``tcp`` (worker hosts over sockets) lives in :mod:`repro.cluster.tcp`.
EXECUTOR_NAMES = ("serial", "threads", "processes", "tcp")

#: Modules imported inside worker processes to populate the task registry.
DEFAULT_TASK_MODULES = ("repro.core.shard_exec",)


class StaleEpochError(RuntimeError):
    """A shard task addressed an epoch the worker no longer (or not yet) holds."""

    def __init__(self, rank: int, epoch: int, available: Sequence[int]) -> None:
        super().__init__(
            f"worker {rank} has no shard for epoch {epoch} "
            f"(holds {list(available) or 'none'})"
        )
        self.rank = rank
        self.epoch = epoch
        self.available = tuple(available)


class ShardTaskError(RuntimeError):
    """A shard task raised inside a worker; carries the remote traceback."""

    def __init__(self, rank: int, task: str, remote_traceback: str) -> None:
        super().__init__(f"shard task {task!r} failed on worker {rank}:\n{remote_traceback}")
        self.rank = rank
        self.task = task
        self.remote_traceback = remote_traceback


# ---------------------------------------------------------------------- #
# shard task registry (shared by in-process executors and worker processes)
# ---------------------------------------------------------------------- #
_SHARD_TASKS: Dict[str, Callable[[Any, Any], Any]] = {}
_SHARD_LOADERS: Dict[str, Callable[[Any], Any]] = {}


def register_shard_task(name: str):
    """Register ``fn(shard, payload) -> result`` under ``name``.

    Tasks must live at module level in an importable module (worker processes
    re-import the registry), and must only read the shard — shards are
    immutable epoch snapshots shared by every in-flight query of that epoch.
    The function carries its registered name as ``fn.task_name``, so a caller
    holding the function can dispatch it by name to the workers.
    """

    def decorator(fn: Callable[[Any, Any], Any]):
        _SHARD_TASKS[name] = fn
        fn.task_name = name
        return fn

    return decorator


def register_shard_loader(name: str):
    """Register ``fn(blob) -> shard``, the worker-side hydration step."""

    def decorator(fn: Callable[[Any], Any]):
        _SHARD_LOADERS[name] = fn
        return fn

    return decorator


def _resolve_task(name: str) -> Callable[[Any, Any], Any]:
    if name not in _SHARD_TASKS:
        _import_task_modules(DEFAULT_TASK_MODULES)
    try:
        return _SHARD_TASKS[name]
    except KeyError:
        raise KeyError(f"unknown shard task {name!r}; registered: {sorted(_SHARD_TASKS)}")


def _resolve_loader(name: str) -> Callable[[Any], Any]:
    if name not in _SHARD_LOADERS:
        _import_task_modules(DEFAULT_TASK_MODULES)
    try:
        return _SHARD_LOADERS[name]
    except KeyError:
        raise KeyError(f"unknown shard loader {name!r}; registered: {sorted(_SHARD_LOADERS)}")


def _import_task_modules(modules: Sequence[str]) -> None:
    for module in modules:
        importlib.import_module(module)


# ---------------------------------------------------------------------- #
# the backend contract
# ---------------------------------------------------------------------- #
class ExecutorBackend(ABC):
    """How one cluster executes the per-worker work of a phase."""

    name: str = "abstract"
    #: Can this backend run arbitrary closures on the workers?
    supports_closures: bool = True
    #: Should DSR queries run through hydrated shard tasks on this backend?
    wants_sharded_queries: bool = False
    #: Can hydration blobs reference shared-memory segments?  False for
    #: backends whose workers live beyond this machine's address space
    #: (e.g. ``tcp``): the index then builds self-contained pickled blobs.
    supports_shm_hydration: bool = True

    def start(self, num_workers: int) -> None:
        """Bind the backend to a worker count (idempotent)."""
        self.num_workers = num_workers

    @abstractmethod
    def run_phase(
        self, fns: Mapping[int, Callable[[], Any]]
    ) -> Dict[int, Tuple[Any, float]]:
        """Run ``{rank: closure}`` and return ``{rank: (result, seconds)}``."""

    @abstractmethod
    def run_shard_phase(
        self, task: str, epoch: Optional[int], payloads: Mapping[int, Any]
    ) -> Dict[int, Tuple[Any, float]]:
        """Run a registered shard task on every rank in ``payloads``."""

    @abstractmethod
    def hydrate(
        self,
        rank: int,
        epoch: int,
        blob: Any,
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        """Install the shard for ``(rank, epoch)``; drop epochs < ``retire_below``."""

    def hydrate_all(
        self,
        epoch: int,
        blobs: Mapping[int, Any],
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        """Install one epoch's shards on every rank (overlapped where possible)."""
        for rank, blob in blobs.items():
            self.hydrate(rank, epoch, blob, loader, retire_below=retire_below)

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release worker resources (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={getattr(self, 'num_workers', '?')})"


def _timed_call(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _record_shard_task(task: str, seconds: float) -> None:
    """Account one shard-task execution in the current process's registry.

    Called identically by the in-process executors and the worker-process
    loop, so ``dsr_shard_tasks_total`` is comparable across backends (worker
    deltas are shipped back and absorbed at the master).
    """
    registry = obs_runtime.global_registry()
    if registry.enabled:
        registry.inc("dsr_shard_tasks_total", task=task)
        registry.observe("dsr_shard_task_seconds", seconds, task=task)


def _record_hydration(seconds: float) -> None:
    registry = obs_runtime.global_registry()
    if registry.enabled:
        registry.inc("dsr_shard_hydrations_total")
        registry.observe("dsr_shard_hydrate_seconds", seconds)


def _close_shard(shard: Any) -> None:
    """Release a retired shard's resources (e.g. a shared-memory mapping)."""
    close = getattr(shard, "close", None)
    if close is None:
        return
    try:
        close()
    except Exception:  # pragma: no cover - release is best-effort
        pass


class _InProcessShardStore:
    """Epoch-keyed shard storage shared by the in-process executors."""

    def __init__(self) -> None:
        self._shards: Dict[int, Dict[int, Any]] = {}
        self._lock = threading.Lock()

    def put(self, rank: int, epoch: int, shard: Any, retire_below: Optional[int]) -> None:
        retired = []
        with self._lock:
            per_rank = self._shards.setdefault(rank, {})
            previous = per_rank.get(epoch)
            if previous is not None and previous is not shard:
                retired.append(previous)
            per_rank[epoch] = shard
            if retire_below is not None:
                for old in [e for e in per_rank if e < retire_below]:
                    retired.append(per_rank.pop(old))
        for old_shard in retired:
            _close_shard(old_shard)

    def get(self, rank: int, epoch: Optional[int]) -> Any:
        with self._lock:
            per_rank = self._shards.get(rank, {})
            if epoch is None:
                return None
            if epoch not in per_rank:
                raise StaleEpochError(rank, epoch, sorted(per_rank))
            return per_rank[epoch]


class _InProcessExecutor(ExecutorBackend):
    """Shared shard storage + hydration for the in-process executors."""

    def __init__(self) -> None:
        self._store = _InProcessShardStore()

    def hydrate(
        self,
        rank: int,
        epoch: int,
        blob: Any,
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        shard, seconds = _timed_call(lambda: _resolve_loader(loader)(blob))
        self._store.put(rank, epoch, shard, retire_below)
        _record_hydration(seconds)


class SerialExecutor(_InProcessExecutor):
    """Workers run one after another on the calling thread."""

    name = "serial"

    def run_phase(self, fns: Mapping[int, Callable[[], Any]]) -> Dict[int, Tuple[Any, float]]:
        return {rank: _timed_call(fn) for rank, fn in fns.items()}

    def run_shard_phase(
        self, task: str, epoch: Optional[int], payloads: Mapping[int, Any]
    ) -> Dict[int, Tuple[Any, float]]:
        fn = _resolve_task(task)
        results: Dict[int, Tuple[Any, float]] = {}
        for rank, payload in payloads.items():
            shard = self._store.get(rank, epoch)
            results[rank] = _timed_call(lambda s=shard, p=payload: fn(s, p))
            _record_shard_task(task, results[rank][1])
        return results


class ThreadExecutor(_InProcessExecutor):
    """Workers run on a persistent thread pool (one slot per worker)."""

    name = "threads"

    def __init__(self) -> None:
        super().__init__()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                workers = max(2, getattr(self, "num_workers", 2))
                self._pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="cluster-worker"
                )
            return self._pool

    def run_phase(self, fns: Mapping[int, Callable[[], Any]]) -> Dict[int, Tuple[Any, float]]:
        if len(fns) <= 1:
            return {rank: _timed_call(fn) for rank, fn in fns.items()}
        pool = self._ensure_pool()
        futures = {rank: pool.submit(_timed_call, fn) for rank, fn in fns.items()}
        return {rank: future.result() for rank, future in futures.items()}

    def run_shard_phase(
        self, task: str, epoch: Optional[int], payloads: Mapping[int, Any]
    ) -> Dict[int, Tuple[Any, float]]:
        fn = _resolve_task(task)
        closures = {
            rank: (lambda s=self._store.get(rank, epoch), p=payload: fn(s, p))
            for rank, payload in payloads.items()
        }
        results = self.run_phase(closures)
        for rank in results:
            _record_shard_task(task, results[rank][1])
        return results

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None


# ---------------------------------------------------------------------- #
# process workers
# ---------------------------------------------------------------------- #
def _process_worker_main(conn, rank: int, task_modules: Sequence[str]) -> None:
    """Long-lived worker loop: hydrate shards once, answer shard tasks.

    Metrics recorded inside the worker (by shard tasks, loaders, or the loop
    itself) accumulate in the worker's process-local registry and are shipped
    back as a :class:`~repro.obs.registry.MetricsDelta` piggybacked on each
    reply; the parent folds them into the master registry — the same
    merge-at-master pattern as ``Network.absorb()``.
    """
    _import_task_modules(task_modules)
    # Drop the fork-inherited copy of the parent's metric state: without this
    # every worker would ship the parent's pre-fork totals as its own delta.
    obs_runtime.reset_for_worker()
    shards: Dict[int, Any] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "hydrate":
                _, epoch, loader_name, blob, retire_below = message
                start = time.perf_counter()
                previous = shards.get(epoch)
                shards[epoch] = _SHARD_LOADERS[loader_name](blob)
                if previous is not None:
                    _close_shard(previous)
                _record_hydration(time.perf_counter() - start)
                if retire_below is not None:
                    for old in [e for e in shards if e < retire_below]:
                        _close_shard(shards.pop(old))
                conn.send(("ok", None, 0.0, obs_runtime.collect_worker_delta()))
            elif kind == "task":
                _, task_name, epoch, payload = message
                if epoch is not None and epoch not in shards:
                    conn.send(("stale", epoch, sorted(shards), obs_runtime.collect_worker_delta()))
                    continue
                fn = _SHARD_TASKS[task_name]
                shard = shards.get(epoch)
                start = time.perf_counter()
                result = fn(shard, payload)
                seconds = time.perf_counter() - start
                _record_shard_task(task_name, seconds)
                conn.send(("ok", result, seconds, obs_runtime.collect_worker_delta()))
            else:
                conn.send(("error", "ProtocolError", f"unknown command {kind!r}"))
        except StaleEpochError as exc:
            # A task may declare its shard stale mid-execution (e.g. a
            # packed payload addressed in a rank numbering the shard no
            # longer matches); report it like the pre-dispatch epoch check
            # so callers re-capture and retry instead of failing hard.
            conn.send(("stale", exc.epoch, list(exc.available), obs_runtime.collect_worker_delta()))
        except Exception:
            conn.send(("error", "TaskError", traceback.format_exc()))
    # Clean exit: detach from any shared-memory shard mappings.
    for shard in shards.values():
        _close_shard(shard)


class ProcessExecutor(ExecutorBackend):
    """One long-lived OS process per worker, hydrated once per epoch.

    Workers are spawned lazily on first use (engines that never query through
    shards pay nothing).  Each worker owns a pipe guarded by a lock, so
    concurrent queries serialise *per worker* while different workers execute
    truly in parallel; a small parent-side dispatch pool overlaps the blocking
    pipe round-trips of one phase.
    """

    name = "processes"
    supports_closures = False
    wants_sharded_queries = True

    def __init__(self, task_modules: Sequence[str] = DEFAULT_TASK_MODULES) -> None:
        self._task_modules = tuple(task_modules)
        self._workers: Dict[int, Any] = {}  # rank -> (process, connection)
        self._worker_locks: Dict[int, threading.Lock] = {}
        self._dispatch: Optional[ThreadPoolExecutor] = None
        self._lifecycle = threading.Lock()
        self._closed = False
        #: rank -> {epoch: last hydrate message}, replayed into a respawned
        #: worker so a crash is invisible above the executor: the substitute
        #: process re-hydrates every retained epoch before the retried task.
        self._hydration_cache: Dict[int, Dict[int, Tuple]] = {}

    # -- lifecycle ------------------------------------------------------ #
    def _spawn_worker(self, context, rank: int) -> None:
        """Start (or restart) the worker process for ``rank``."""
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_process_worker_main,
            args=(child_conn, rank, self._task_modules),
            name=f"shard-worker-{rank}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers[rank] = (process, parent_conn)

    def _fork_context(self):
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            return multiprocessing.get_context()

    def _ensure_started(self) -> None:
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._workers:
                return
            # Import the task modules in the PARENT before forking: the
            # children then resolve them straight from the inherited
            # sys.modules instead of running a real import — which could
            # deadlock on an import lock some other parent thread held at
            # fork time (e.g. another engine's maintenance thread).
            _import_task_modules(self._task_modules)
            context = self._fork_context()
            for rank in range(self.num_workers):
                self._spawn_worker(context, rank)
                self._worker_locks[rank] = threading.Lock()
            self._dispatch = ThreadPoolExecutor(
                max_workers=max(2, 2 * self.num_workers),
                thread_name_prefix="shard-dispatch",
            )

    def close(self) -> None:
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, {}
            dispatch, self._dispatch = self._dispatch, None
            self._hydration_cache.clear()
        for process, conn in workers.values():
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for process, conn in workers.values():
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if dispatch is not None:
            dispatch.shutdown(wait=False)

    def __del__(self) -> None:  # pragma: no cover - GC-time cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- request plumbing ----------------------------------------------- #
    def _respawn_locked(self, rank: int, message: Tuple) -> Any:
        """Replace a dead worker and retry ``message`` once (lock held).

        The substitute process is re-hydrated from the cached hydrate
        messages of every epoch the dead worker retained — segment names
        are still valid (the master's shm ledger owns them), so replay is
        cheap attach-by-name.  A second failure gives up for real.
        """
        with self._lifecycle:
            if self._closed:
                raise RuntimeError(f"shard worker {rank} died") from None
            old_process, old_conn = self._workers[rank]
            try:
                old_conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            old_process.join(timeout=0.5)
            self._spawn_worker(self._fork_context(), rank)
            registry = obs_runtime.global_registry()
            if registry.enabled:
                registry.inc("dsr_worker_respawns_total")
            replay = sorted(self._hydration_cache.get(rank, {}).items())
        process, conn = self._workers[rank]
        try:
            for _, hydrate_message in replay:
                conn.send(hydrate_message)
                conn.recv()
            conn.send(message)
            return conn.recv()
        except (EOFError, OSError) as exc:  # pragma: no cover - double death
            raise RuntimeError(f"shard worker {rank} died") from exc

    def _call_worker(self, rank: int, message: Tuple) -> Tuple[Any, float]:
        process, conn = self._workers[rank]
        with self._worker_locks[rank]:
            try:
                failpoint("executor.dispatch", rank=rank, kind=message[0])
                conn.send(message)
                reply = conn.recv()
            except (EOFError, OSError):
                reply = self._respawn_locked(rank, message)
        kind = reply[0]
        if len(reply) > 3 and reply[3] is not None:
            # Piggybacked worker metrics delta: fold into the master registry
            # before any control flow so stale replies don't lose metrics.
            obs_runtime.absorb_delta(reply[3])
        if kind == "ok":
            return reply[1], reply[2]
        if kind == "stale":
            raise StaleEpochError(rank, reply[1], reply[2])
        raise ShardTaskError(rank, str(message[1]) if len(message) > 1 else "?", reply[2])

    def _fan_out(
        self, messages: Mapping[int, Tuple]
    ) -> Dict[int, Tuple[Any, float]]:
        self._ensure_started()
        if len(messages) == 1:
            ((rank, message),) = messages.items()
            return {rank: self._call_worker(rank, message)}
        assert self._dispatch is not None
        futures = {
            rank: self._dispatch.submit(self._call_worker, rank, message)
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

    # -- backend API ---------------------------------------------------- #
    def run_phase(self, fns: Mapping[int, Callable[[], Any]]) -> Dict[int, Tuple[Any, float]]:
        # Closures over shared engine state cannot cross the process
        # boundary; closure phases (index build, maintenance assembly) run at
        # the master.  Queries go through run_shard_phase instead.
        return {rank: _timed_call(fn) for rank, fn in fns.items()}

    def run_shard_phase(
        self, task: str, epoch: Optional[int], payloads: Mapping[int, Any]
    ) -> Dict[int, Tuple[Any, float]]:
        return self._fan_out(
            {rank: ("task", task, epoch, payload) for rank, payload in payloads.items()}
        )

    def _remember_hydration(
        self, rank: int, epoch: int, message: Tuple, retire_below: Optional[int]
    ) -> None:
        """Cache the hydrate message for crash-replay, pruned like the worker."""
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
        self._ensure_started()
        message = ("hydrate", epoch, loader, blob, retire_below)
        self._remember_hydration(rank, epoch, message, retire_below)
        self._call_worker(rank, message)

    def hydrate_all(
        self,
        epoch: int,
        blobs: Mapping[int, Any],
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        # One pipe round-trip per worker, overlapped through the dispatch
        # pool: epoch publication latency stays ~one transfer, not N.
        messages = {
            rank: ("hydrate", epoch, loader, blob, retire_below)
            for rank, blob in blobs.items()
        }
        for rank, message in messages.items():
            self._remember_hydration(rank, epoch, message, retire_below)
        self._fan_out(messages)


def _make_tcp_executor() -> ExecutorBackend:
    # Imported lazily: repro.cluster.tcp imports from this module.
    from repro.cluster.tcp import TcpExecutor

    return TcpExecutor()


_FACTORIES: Dict[str, Callable[[], ExecutorBackend]] = {
    "serial": SerialExecutor,
    "threads": ThreadExecutor,
    "processes": ProcessExecutor,
    "tcp": _make_tcp_executor,
}

def make_executor(name: str) -> ExecutorBackend:
    """Instantiate an executor backend by name (not yet started)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; available: {', '.join(EXECUTOR_NAMES)}"
        ) from None
    return factory()


__all__ = [
    "DEFAULT_TASK_MODULES",
    "EXECUTOR_NAMES",
    "ExecutorBackend",
    "ProcessExecutor",
    "SerialExecutor",
    "ShardTaskError",
    "StaleEpochError",
    "ThreadExecutor",
    "make_executor",
    "register_shard_loader",
    "register_shard_task",
]
