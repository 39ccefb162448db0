"""Simulated network with message, byte and round accounting.

All statistics counters are guarded by one lock so that several queries
executing concurrently against the same cluster (a service's worker threads)
never lose increments to the classic read-modify-write race: the message and
byte counts behind the Figure-5 communication numbers stay exact however
many threads send at once.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.message import Message


@dataclass
class NetworkStats:
    """Cumulative communication statistics."""

    messages_sent: int = 0
    bytes_sent: int = 0
    rounds: int = 0
    per_destination_bytes: Dict[int, int] = field(default_factory=dict)
    #: Bytes per message tag ("handles", "data"...) — feeds the per-step
    #: payload byte counts on query traces.
    per_tag_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def kilobytes_sent(self) -> float:
        return self.bytes_sent / 1024.0

    def merge(self, other: "NetworkStats") -> None:
        """Fold another stats record into this one (used for absorption)."""
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.rounds += other.rounds
        for destination, count in other.per_destination_bytes.items():
            self.per_destination_bytes[destination] = (
                self.per_destination_bytes.get(destination, 0) + count
            )
        for tag, count in other.per_tag_bytes.items():
            self.per_tag_bytes[tag] = self.per_tag_bytes.get(tag, 0) + count

    def as_dict(self) -> Dict[str, Any]:
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "kilobytes_sent": round(self.kilobytes_sent, 3),
            "rounds": self.rounds,
        }


class Network:
    """In-memory message transport between workers.

    ``send`` enqueues a message for its destination; ``deliver`` drains a
    destination's inbox.  ``complete_round`` marks the end of one communication
    round (one "single round of message exchange" in DSR terms, one superstep
    boundary in Giraph terms).

    Thread safety: every method that touches the inboxes or the statistics
    takes the network's lock, so concurrent workers (thread executors) and
    concurrent queries account their traffic exactly.
    """

    def __init__(self) -> None:
        self._inboxes: Dict[int, List[Message]] = defaultdict(list)
        self.stats = NetworkStats()
        self._lock = threading.Lock()

    def send(self, source: int, destination: int, payload: Any, tag: str = "data") -> Message:
        """Send ``payload`` from ``source`` to ``destination``."""
        message = Message(source=source, destination=destination, payload=payload, tag=tag)
        with self._lock:
            self._inboxes[destination].append(message)
            self.stats.messages_sent += 1
            self.stats.bytes_sent += message.size_bytes
            self.stats.per_destination_bytes[destination] = (
                self.stats.per_destination_bytes.get(destination, 0) + message.size_bytes
            )
            self.stats.per_tag_bytes[tag] = (
                self.stats.per_tag_bytes.get(tag, 0) + message.size_bytes
            )
        return message

    def deliver(self, destination: int) -> List[Message]:
        """Drain and return every message queued for ``destination``."""
        with self._lock:
            return self._inboxes.pop(destination, [])

    def pending(self, destination: Optional[int] = None) -> int:
        """Number of undelivered messages (for one destination or in total)."""
        with self._lock:
            if destination is not None:
                return len(self._inboxes.get(destination, []))
            return sum(len(inbox) for inbox in self._inboxes.values())

    def complete_round(self) -> None:
        """Mark the end of a communication round."""
        with self._lock:
            self.stats.rounds += 1

    def absorb(self, other: NetworkStats) -> None:
        """Merge another stats record into the cumulative counters.

        Queries run over their own private transport (so two concurrent
        queries never mix inboxes) and fold their exact per-query counters
        into the cluster-wide totals here, under the same lock as ``send``.
        """
        with self._lock:
            self.stats.merge(other)

    def reset_stats(self) -> None:
        """Zero the statistics (inboxes are left untouched)."""
        with self._lock:
            self.stats = NetworkStats()
