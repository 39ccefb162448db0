"""Simulated master/slave cluster substrate.

The paper runs on a 10-node MPI cluster; this package provides the equivalent
execution substrate: workers ("slaves") that run per-partition computations —
in-process on the calling thread, or as remote workers (forked children or
worker hosts over sockets, :mod:`repro.cluster.remote`) — and a network layer
that records every message, its byte size and the number of communication
rounds, so that the communication-cost figures of the paper (Figures 5 and 8)
can be reproduced faithfully.
"""

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.message import Message, payload_size
from repro.cluster.network import Network, NetworkStats
from repro.cluster.remote import (
    ProcessExecutor,
    TcpExecutor,
    WorkerHost,
    WorkerTransportError,
)

__all__ = [
    "Message",
    "payload_size",
    "Network",
    "NetworkStats",
    "ProcessExecutor",
    "SimulatedCluster",
    "TcpExecutor",
    "WorkerHost",
    "WorkerTransportError",
]
