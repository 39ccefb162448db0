"""LRU result cache for the DSR query service.

Entries map a normalised query key — ``(frozenset(S), frozenset(T))`` — to
the exact answer ``{(s, t)}``.  The processing direction is deliberately not
part of the key: forward and backward evaluation compute the same exact pair
set, so either may serve a hit for the other.

Staleness under updates
-----------------------
The cache registers itself on the engine's
:class:`~repro.core.updates.IncrementalMaintainer` via
:meth:`ResultCache.attach`, in one of two modes matching the engine's
``epoch_flush`` mode:

* ``invalidate_on="update"`` (for ``epoch_flush="inline"`` engines): every
  applied update is observed *immediately* (before the batched flush), and
  any **structural** update — one that can change an answer — clears the
  cache.  Invalidation cannot wait for the flush here: an inline engine only
  folds pending updates into the index right before its next query, so a
  cache that invalidated at flush time would happily serve stale answers in
  between.
* ``invalidate_on="flush"`` (for ``epoch_flush="background"`` engines):
  structural updates do **not** clear the cache — the engine keeps serving
  the published epoch ``N`` until the background flush swaps in ``N+1``, so
  epoch-``N`` entries stay exactly right until that swap.  The flush
  listener invalidates at the swap.  Entries are additionally tagged with
  the epoch they were computed at, and lookups carry the caller's current
  epoch: an entry from another epoch is rejected (and evicted) even if a
  flush listener ever fired late — invalidation is *by epoch*, not by
  update.
* **non-structural** updates (inserting an edge inside an existing SCC,
  re-inserting a present edge, deleting an absent edge, adding an isolated
  vertex) provably cannot change any reachable pair, so cached entries
  survive them in both modes — this is the precise part of the invalidation.

Whole-cache invalidation (rather than per-partition) is the *correct*
granularity for reachability: refreshing partition ``p`` can change the
answer of a pair ``(s, t)`` whose endpoints live in two other partitions
whenever some path threads through ``p``, so no sound per-entry filter exists
short of re-evaluating the query.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.core.updates import FlushResult, IncrementalMaintainer, UpdateResult

CacheKey = Tuple[FrozenSet[int], FrozenSet[int]]


@dataclass
class CacheStats:
    """Cumulative cache effectiveness counters."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    flushes_observed: int = 0
    epoch_rejections: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "insertions": self.insertions,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "flushes_observed": self.flushes_observed,
            "epoch_rejections": self.epoch_rejections,
        }


@dataclass
class _Entry:
    pairs: FrozenSet[Tuple[int, int]]
    #: Index epoch the answer was computed at (-1 when untagged).
    epoch: int = -1


class ResultCache:
    """Thread-safe LRU cache with update-driven invalidation."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self._maintainers: list = []
        self._invalidate_on = "update"

    # ------------------------------------------------------------------ #
    # key handling
    # ------------------------------------------------------------------ #
    @staticmethod
    def make_key(sources: Iterable[int], targets: Iterable[int]) -> CacheKey:
        """Normalise a query into its cache key (order-insensitive)."""
        return frozenset(sources), frozenset(targets)

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def get(
        self,
        sources: Iterable[int],
        targets: Iterable[int],
        epoch: Optional[int] = None,
        count_miss: bool = True,
    ) -> Optional[Set[Tuple[int, int]]]:
        """Return the cached answer or ``None`` (counts a hit/miss).

        With ``epoch`` given, an entry tagged with a *different* epoch is
        rejected and evicted — the epoch-precise half of invalidation-by-
        epoch (untagged entries are rejected too: they cannot prove their
        version).

        ``count_miss=False`` is for a probe whose miss is handed to a second
        lookup that will count it (the service's non-blocking fast path):
        one request must be one miss.
        """
        key = self.make_key(sources, targets)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and epoch is not None and entry.epoch != epoch:
                del self._entries[key]
                self.stats.epoch_rejections += 1
                entry = None
            if entry is None:
                if count_miss:
                    self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return set(entry.pairs)

    def put(
        self,
        sources: Iterable[int],
        targets: Iterable[int],
        pairs: Iterable[Tuple[int, int]],
        epoch: int = -1,
    ) -> None:
        """Store the exact answer of ``S ⇝ T`` (tagged with its epoch)."""
        key = self.make_key(sources, targets)
        with self._lock:
            self._entries[key] = _Entry(pairs=frozenset(pairs), epoch=epoch)
            self._entries.move_to_end(key)
            self.stats.insertions += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #
    def invalidate_all(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if dropped:
                self.stats.invalidations += 1
            return dropped

    def attach(
        self, maintainer: IncrementalMaintainer, invalidate_on: str = "update"
    ) -> None:
        """Subscribe to a maintainer's update/flush stream.

        ``invalidate_on="update"`` clears on every structural update (inline
        engines); ``"flush"`` clears only at the epoch swap (background
        engines, where the published epoch stays correct until the swap).
        """
        if invalidate_on not in ("update", "flush"):
            raise ValueError(
                f"invalidate_on must be 'update' or 'flush', got {invalidate_on!r}"
            )
        self._invalidate_on = invalidate_on
        maintainer.add_update_listener(self._on_update)
        maintainer.add_flush_listener(self._on_flush)
        self._maintainers.append(maintainer)

    def detach(self) -> None:
        """Unsubscribe from every attached maintainer."""
        for maintainer in self._maintainers:
            maintainer.remove_listener(self._on_update)
            maintainer.remove_listener(self._on_flush)
        self._maintainers.clear()

    def _on_update(self, result: UpdateResult) -> None:
        if self._invalidate_on == "flush":
            # Epoch mode: the published epoch is still the one every entry
            # was computed at — entries stay valid until the swap.
            return
        if result.structural_change:
            self.invalidate_all()

    def _on_flush(self, result: FlushResult) -> None:
        with self._lock:
            self.stats.flushes_observed += 1
        # Listeners fire only for published epochs.  Structural updates
        # already cleared the cache when they were applied; an epoch must
        # still never leave entries behind (e.g. a maintainer attached after
        # updates were queued), whether or not it re-summarised a partition.
        self.invalidate_all()


__all__ = ["CacheKey", "CacheStats", "ResultCache"]
