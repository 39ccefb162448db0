"""Pluggable worker executors: where the shard tasks of a phase run.

The simulated cluster models *what* the paper's master/slave deployment
computes (phases, messages, rounds); an :class:`ExecutorBackend` decides
*where* the per-worker shard tasks of a phase execute:

``serial``
    One worker after another on the calling thread.  Zero overhead, fully
    deterministic — the default, and the right choice for index builds and
    micro-benchmarks of the algorithmic costs.

``processes`` and ``tcp``
    Remote workers, one per rank, each *hydrated once per epoch* with its
    partition's immutable CSR shard (see :mod:`repro.core.shard_exec`) and
    answering shard tasks over one socket — the paper's slaves.  Both are the
    one executor of :mod:`repro.cluster.remote` and differ only in how a
    rank's socket is opened: ``processes`` forks a child on a socketpair,
    ``tcp`` connects to a worker host
    (forked and listening on localhost, or external).  Four workers burn four
    cores.

Shard tasks, not closures
-------------------------
The executor contract is shard tasks, hydration and close.  A shard task is
a registered module-level function ``task(shard, payload) -> result``, so
only small payloads and results cross to a worker, never the graph.
``run_shard_phase`` executes a registered task against the hydrated shard of
a given *epoch* on every requested worker; every worker side keeps its
shards in a :class:`ShardStore`, and asking for an epoch a worker no longer
holds raises :class:`StaleEpochError`, which callers handle by re-reading
the current epoch and retrying.  Closure phases (index build, maintenance
assembly) never reach an executor: :meth:`SimulatedCluster.run_phase
<repro.cluster.cluster.SimulatedCluster.run_phase>` runs each closure on the
calling thread and times it itself.

Every phase result carries the worker's *self-measured* compute seconds
(excluding dispatch/IPC), which feed the simulated-parallel timing model; the
cluster additionally records the real wall-clock of the whole phase.
"""

from __future__ import annotations

import importlib
import threading
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.obs import runtime as obs_runtime

#: Names accepted by :func:`make_executor` (and ``DSRConfig.executor``).
EXECUTOR_NAMES = ("serial", "processes", "tcp")

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
# shard task registry (shared by the serial executor and worker processes)
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
    """Where one cluster's shard tasks run: shard tasks, hydration and close."""

    name: str = "abstract"
    #: Should DSR queries run through hydrated shard tasks on this backend?
    wants_sharded_queries: bool = False

    def start(self, num_workers: int) -> None:
        """Bind the backend to a worker count (idempotent)."""
        self.num_workers = num_workers

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

    Called by :meth:`ShardStore.run` on every worker side, serial or
    remote, so ``dsr_shard_tasks_total`` is comparable across backends
    (remote deltas are shipped back and absorbed at the master).
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


class ShardStore:
    """Epoch-keyed hydrated shards: one per executor worker side.

    The serial executor keeps its shards here directly, and every
    remote :class:`~repro.cluster.remote.WorkerHost` keeps its ranks' shards
    in one, so hydration, retirement and the stale-epoch check are written
    once.  Keys are ``(rank, epoch)``: one host may serve several ranks.
    """

    def __init__(self) -> None:
        self._shards: Dict[int, Dict[int, Any]] = {}
        self._lock = threading.Lock()

    def put(self, rank: int, epoch: int, shard: Any, retire_below: Optional[int]) -> None:
        """Install ``shard`` for ``(rank, epoch)``; drop epochs < ``retire_below``."""
        with self._lock:
            per_rank = self._shards.setdefault(rank, {})
            per_rank[epoch] = shard
            if retire_below is not None:
                for old in [e for e in per_rank if e < retire_below]:
                    del per_rank[old]

    def get(self, rank: int, epoch: Optional[int]) -> Any:
        """The shard for ``(rank, epoch)``; :class:`StaleEpochError` if not held."""
        with self._lock:
            per_rank = self._shards.get(rank, {})
            if epoch is None:
                return None
            if epoch not in per_rank:
                raise StaleEpochError(rank, epoch, sorted(per_rank))
            return per_rank[epoch]

    def hydrate(
        self, rank: int, epoch: int, blob: Any, loader: str, retire_below: Optional[int]
    ) -> None:
        """Load ``blob`` with the registered ``loader`` and :meth:`put` it."""
        shard, seconds = _timed_call(lambda: _resolve_loader(loader)(blob))
        self.put(rank, epoch, shard, retire_below)
        _record_hydration(seconds)

    def run(self, rank: int, epoch: Optional[int], task: str, payload: Any) -> Tuple[Any, float]:
        """Run registered ``task`` on ``(rank, epoch)``'s shard: ``(result, seconds)``."""
        shard = self.get(rank, epoch)
        fn = _resolve_task(task)
        result, seconds = _timed_call(lambda: fn(shard, payload))
        _record_shard_task(task, seconds)
        return result, seconds

    def epochs_held(self) -> Dict[int, Tuple[int, ...]]:
        """``{rank: epochs}`` currently held."""
        with self._lock:
            return {
                rank: tuple(sorted(per_rank))
                for rank, per_rank in self._shards.items()
                if per_rank
            }

    def clear(self) -> None:
        """Drop every shard."""
        with self._lock:
            self._shards = {}


class SerialExecutor(ExecutorBackend):
    """Workers run one after another on the calling thread."""

    name = "serial"

    def __init__(self) -> None:
        self._store = ShardStore()

    def hydrate(
        self,
        rank: int,
        epoch: int,
        blob: Any,
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        self._store.hydrate(rank, epoch, blob, loader, retire_below)

    def run_shard_phase(
        self, task: str, epoch: Optional[int], payloads: Mapping[int, Any]
    ) -> Dict[int, Tuple[Any, float]]:
        return {
            rank: self._store.run(rank, epoch, task, payload)
            for rank, payload in payloads.items()
        }


def make_executor(name: str) -> ExecutorBackend:
    """Instantiate an executor backend by name (not yet started)."""
    # Imported lazily: repro.cluster.remote imports from this module.
    from repro.cluster.remote import ProcessExecutor, TcpExecutor

    factories: Dict[str, Callable[[], ExecutorBackend]] = {
        "serial": SerialExecutor,
        "processes": ProcessExecutor,
        "tcp": TcpExecutor,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; available: {', '.join(EXECUTOR_NAMES)}"
        ) from None
    return factory()


__all__ = [
    "DEFAULT_TASK_MODULES",
    "EXECUTOR_NAMES",
    "ExecutorBackend",
    "SerialExecutor",
    "ShardStore",
    "ShardTaskError",
    "StaleEpochError",
    "make_executor",
    "register_shard_loader",
    "register_shard_task",
]
