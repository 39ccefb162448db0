"""Shared-memory segment ledger for zero-copy epoch shard hydration.

When the cluster runs on the ``processes`` executor, every epoch publish
used to re-ship each partition's CSR payload to its worker and rebuild it
with :meth:`~repro.graph.csr.CSRGraph.from_bytes` inside the worker.  This
module moves those payloads into POSIX shared memory instead: the master
writes one ``multiprocessing.shared_memory`` segment per ``(epoch, rank)``
shard at publish time, the hydration blob carries only the segment *name*,
and the worker attaches and flips its CSR buffers to point straight into
the mapping (:meth:`~repro.graph.csr.CSRGraph.from_shared`) — no
serialization crosses the worker link and no adjacency copy is made on either
side after the single publish-time write.

Lifecycle rules
---------------
* The **master** owns every segment through a :class:`ShmLedger`: created
  at publish, replaced in place on a same-epoch rehydration, unlinked when
  the epoch falls below the workers' retain window (``retire_below``), and
  unconditionally unlinked by :meth:`ShmLedger.close` / the ``atexit``
  safety net.  A POSIX unlink only removes the name — workers that still
  map the segment keep reading it until they drop their attachment, so
  retiring an epoch under an in-flight query is safe.
* **Workers** only ever attach (:func:`attach`).  The attachment is
  immediately unregistered from ``multiprocessing.resource_tracker``
  (Python < 3.13 registers attaches too — bpo-39959), because the tracker
  would otherwise unlink master-owned segments when a worker exits and
  print spurious leak warnings.  A worker killed with ``SIGKILL`` leaks
  nothing: the kernel drops its mappings, and the name is still owned (and
  eventually unlinked) by the master's ledger.

Set ``REPRO_SHM=0`` to disable the path entirely (hydration falls back to
pickled CSR bytes); :func:`shm_available` re-reads the environment on each
call so tests and benchmarks can toggle it per engine.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref
from typing import Dict, Optional, Tuple

from repro.obs.runtime import global_registry
from repro.resilience.failpoints import failpoint

try:  # pragma: no cover - import guarded for exotic platforms
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - no POSIX shm support
    shared_memory = None  # type: ignore[assignment]


def shm_available() -> bool:
    """True when shared-memory hydration can (and may) be used.

    Checked per call, not cached: ``REPRO_SHM=0`` must be able to turn the
    path off between two engines of the same process (the publish-cost
    benchmark measures both modes back to back).
    """
    return shared_memory is not None and os.environ.get("REPRO_SHM", "1") != "0"


class AttachedSegment:
    """A worker-side attachment to a master-owned segment.

    Exposes the raw mapping as ``buf`` (a writable ``memoryview``, treated
    read-only by contract) and detaches on :meth:`close`.  Never unlinks —
    the name belongs to the creating ledger.
    """

    __slots__ = ("name", "_shm", "__weakref__")

    def __init__(self, name: str) -> None:
        if shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("shared memory is not available on this platform")
        failpoint("shm.attach", name=name)
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            # Python < 3.13 has no track flag: attaching registers the name
            # with the resource tracker (bpo-39959).  Fork-context workers
            # share the master's tracker process, where the registration is
            # a duplicate of the creator's own — a set no-op — and the
            # master's unlink unregisters it exactly once.  Unregistering
            # here would remove the *master's* entry out from under it.
            shm = shared_memory.SharedMemory(name=name)
        self.name = name
        self._shm = shm

    @property
    def buf(self) -> memoryview:
        return self._shm.buf

    def close(self) -> None:
        """Drop the mapping (idempotent; tolerates exported sub-views)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a consumer still holds a view
            # Leave the mapping to process exit; unlink (master-side) already
            # guarantees the backing file goes away regardless.
            pass

    def __del__(self) -> None:  # pragma: no cover - GC-time cleanup
        try:
            self.close()
        except Exception:
            pass


class ShmLedger:
    """Master-side registry of every live ``(epoch, rank)`` shard segment.

    One ledger per hydrating index.  All methods are thread-safe (a flush
    thread publishes while queries may trigger a same-epoch rehydration).
    """

    def __init__(self, prefix: str = "dsr") -> None:
        self._prefix = prefix
        self._segments: Dict[Tuple[int, int], "shared_memory.SharedMemory"] = {}
        self._lock = threading.Lock()
        self._serial = 0
        self._closed = False
        _LIVE_LEDGERS.add(self)

    # ------------------------------------------------------------------ #
    # creation / retirement
    # ------------------------------------------------------------------ #
    def create(self, epoch: int, rank: int, nbytes: int) -> "shared_memory.SharedMemory":
        """Create (or replace) the segment for ``(epoch, rank)``.

        Returns the created :class:`SharedMemory`; the caller writes the
        payload into ``.buf`` before shipping the name.  Replacing is what a
        same-epoch :meth:`~repro.core.index.DSRIndex.rehydrate_partition`
        does — the old name is unlinked, workers that still map it are
        unaffected, and newly hydrating workers attach to the new name.
        """
        if shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("shared memory is not available on this platform")
        with self._lock:
            if self._closed:
                raise RuntimeError("shm ledger is closed")
            stale = self._segments.pop((epoch, rank), None)
            if stale is not None:
                _destroy(stale)
            while True:
                self._serial += 1
                name = f"{self._prefix}{os.getpid()}_{self._serial}_e{epoch}_r{rank}"
                try:
                    segment = shared_memory.SharedMemory(
                        name=name, create=True, size=max(1, nbytes)
                    )
                    break
                except FileExistsError:  # pragma: no cover - stale name reuse
                    continue
            self._segments[(epoch, rank)] = segment
            self._update_gauge_locked()
            return segment

    def retire_below(self, epoch: int) -> int:
        """Unlink every segment whose epoch is below ``epoch``.

        Mirrors the workers' shard-retain window: called right after an
        epoch's ``hydrate_all`` with the same ``retire_below`` bound, so the
        ledger holds at most two epochs of segments in steady state.
        """
        with self._lock:
            victims = [key for key in self._segments if key[0] < epoch]
            for key in victims:
                _destroy(self._segments.pop(key))
            if victims:
                self._update_gauge_locked()
            return len(victims)

    def close(self) -> None:
        """Unlink everything (idempotent; called from engine close + atexit)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments, self._segments = self._segments, {}
            for segment in segments.values():
                _destroy(segment)
            self._update_gauge_locked()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def segment_count(self) -> int:
        with self._lock:
            return len(self._segments)

    def segment_names(self) -> Tuple[str, ...]:
        """Names of every live segment (stable snapshot, tests/debugging)."""
        with self._lock:
            return tuple(seg.name for seg in self._segments.values())

    def name_of(self, epoch: int, rank: int) -> Optional[str]:
        with self._lock:
            segment = self._segments.get((epoch, rank))
            return segment.name if segment is not None else None

    def _update_gauge_locked(self) -> None:
        registry = global_registry()
        if registry.enabled:
            registry.set_gauge("shm_segments", len(self._segments))

    def __del__(self) -> None:  # pragma: no cover - GC-time cleanup
        try:
            self.close()
        except Exception:
            pass


def attach(name: str) -> AttachedSegment:
    """Attach to a master-owned segment by name (worker-side)."""
    return AttachedSegment(name)


def _destroy(segment: "shared_memory.SharedMemory") -> None:
    """Close and unlink one owned segment, tolerating partial failure."""
    failpoint("shm.unlink", name=segment.name)
    try:
        segment.close()
    except BufferError:  # pragma: no cover - view still exported
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


#: Every ledger ever opened in this process; the atexit hook drains it so a
#: crashed or careless caller never leaves segments behind in /dev/shm.
_LIVE_LEDGERS: "weakref.WeakSet[ShmLedger]" = weakref.WeakSet()


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - exercised via subprocess tests
    for ledger in list(_LIVE_LEDGERS):
        try:
            ledger.close()
        except Exception:
            pass


__all__ = ["AttachedSegment", "ShmLedger", "attach", "shm_available"]
