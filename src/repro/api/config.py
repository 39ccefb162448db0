"""Typed, serialisable engine configuration.

:class:`DSRConfig` is the single description of *how* a set-reachability
engine should be built: which backend answers the queries, how the graph is
partitioned, and whether the equivalence-set and backward-processing
optimisations are enabled.  Every entry point of the reproduction — the
Python API (:func:`repro.api.open_engine`), the CLI, the service layer and
the benchmarks — constructs engines from the same config object, and
:meth:`DSRConfig.to_dict` / :meth:`DSRConfig.from_dict` round-trip it
losslessly through JSON so a config can travel over the wire or live in a
file.

Validation happens at construction: a :class:`DSRConfig` that exists is a
config the engine builders accept (the one exception is ``backend``, whose
registry membership is checked at :func:`~repro.api.backends.open_engine`
time so user-defined backends can be registered after configs referencing
them are created).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional

from repro.cluster.executors import EXECUTOR_NAMES
from repro.reachability.factory import available_strategies

#: Partitioning strategies understood by ``repro.partition.make_partitioning``.
PARTITIONERS = ("metis", "min-cut", "mincut", "hash")

#: Maintenance scheduling modes for the epoch-versioned index.
EPOCH_FLUSH_MODES = ("inline", "background")


class ConfigError(ValueError):
    """Raised when a :class:`DSRConfig` field or payload is invalid."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class DSRConfig:
    """Frozen, validated configuration for building a set-reachability engine.

    Fields
    ------
    backend:
        Registry name of the execution strategy (``"dsr"``, ``"giraph"``,
        ``"giraphpp"``, ``"giraphpp-eq"``, ``"naive"``, ``"fan"``, or any
        name added via :func:`repro.api.register_backend`).
    num_partitions:
        Number of slaves / graph partitions.
    partitioner:
        ``"metis"`` (min-cut) or ``"hash"``.
    local_index:
        Per-slave reachability strategy of the ``"fan"`` and ``"naive"``
        baselines (``"dfs"``, ``"msbfs"``, ``"ferrari"``, ``"grail"``,
        ``"closure"``).  The ``"dsr"`` backend runs one kernel, the bitset
        one-pass sweep over each condensed compound graph, on every executor
        and in both directions; it accepts only ``"msbfs"`` (the default)
        and refuses any other value with :class:`ConfigError`.  The paper's
        local-strategy comparison (its Fig. 7) runs every strategy over the
        engine's published condensations instead
        (``benchmarks/bench_fig7_local_indexes.py``).
    use_equivalence:
        Enable the equivalence-set optimisation (Section 3.3 of the paper).
    executor:
        How cluster phases execute: ``"serial"`` (default), ``"threads"``
        (persistent thread pool), ``"processes"`` (one long-lived worker
        process per partition, hydrated once per epoch with its immutable
        CSR shard — real parallelism) or ``"tcp"`` (worker hosts reachable
        over sockets — a managed local fleet by default, or the external
        hosts named by ``worker_hosts``).
    worker_hosts:
        ``executor="tcp"`` only: sequence of ``"host:port"`` strings naming
        running :class:`~repro.cluster.remote.WorkerHost` servers; rank ``r``
        maps to ``worker_hosts[r % len(worker_hosts)]``.  ``None`` (default)
        lets the tcp executor spawn its own localhost fleet.
    epoch_flush:
        When batched updates are folded into the index: ``"inline"``
        (default — before the next query, which therefore waits) or
        ``"background"`` (a coalescing maintenance thread builds epoch
        ``N+1`` while queries keep reading epoch ``N``; queries never block
        on maintenance).
    kernels:
        Only ``"auto"``, and nothing reads it.  numpy is a requirement, and
        each kernel call picks the python loop or the numpy function by its
        input size alone (see :mod:`repro.reachability.kernels`); the
        removed ``"python"`` and ``"numpy"`` values raise
        :class:`ConfigError`.
    seed:
        Random seed used by the partitioner.
    enable_backward:
        Also build the mirror index over the reversed graph so queries can be
        processed from the target side (Section 3.3.2).
    """

    backend: str = "dsr"
    num_partitions: int = 4
    partitioner: str = "metis"
    local_index: str = "msbfs"
    use_equivalence: bool = True
    seed: int = 0
    enable_backward: bool = False
    executor: str = "serial"
    epoch_flush: str = "inline"
    kernels: str = "auto"
    worker_hosts: Optional[Any] = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.backend, str) and bool(self.backend),
            f"backend must be a non-empty string, got {self.backend!r}",
        )
        _require(
            isinstance(self.num_partitions, int)
            and not isinstance(self.num_partitions, bool)
            and self.num_partitions >= 1,
            f"num_partitions must be a positive integer, got {self.num_partitions!r}",
        )
        _require(
            self.partitioner in PARTITIONERS,
            f"unknown partitioner {self.partitioner!r}; "
            f"available: {', '.join(PARTITIONERS)}",
        )
        _require(
            self.local_index in available_strategies(),
            f"unknown local index {self.local_index!r}; "
            f"available: {', '.join(available_strategies())}",
        )
        _require(
            self.backend != "dsr" or self.local_index == "msbfs",
            f"local_index={self.local_index!r} is not supported by the dsr backend: "
            "it runs one kernel, the bitset sweep over each condensation; "
            "the dsr backend accepts only 'msbfs'",
        )
        _require(
            self.executor in EXECUTOR_NAMES,
            f"unknown executor {self.executor!r}; "
            f"available: {', '.join(EXECUTOR_NAMES)}",
        )
        _require(
            self.epoch_flush in EPOCH_FLUSH_MODES,
            f"unknown epoch_flush mode {self.epoch_flush!r}; "
            f"available: {', '.join(EPOCH_FLUSH_MODES)}",
        )
        _require(
            self.kernels == "auto",
            f"kernels={self.kernels!r} is not supported: the kernel tier is no "
            "longer selectable (numpy is required, and each call picks its tier "
            "by input size); kernels accepts only 'auto'",
        )
        for flag in ("use_equivalence", "enable_backward"):
            _require(
                isinstance(getattr(self, flag), bool),
                f"{flag} must be a bool, got {getattr(self, flag)!r}",
            )
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool),
            f"seed must be an integer, got {self.seed!r}",
        )
        if self.worker_hosts is not None:
            _require(
                self.executor == "tcp",
                "worker_hosts requires executor='tcp', "
                f"got executor={self.executor!r}",
            )
            _require(
                isinstance(self.worker_hosts, (list, tuple))
                and len(self.worker_hosts) >= 1
                and all(isinstance(spec, str) for spec in self.worker_hosts),
                "worker_hosts must be a non-empty sequence of 'host:port' "
                f"strings, got {self.worker_hosts!r}",
            )
            from repro.cluster.remote import parse_host_port

            for spec in self.worker_hosts:
                try:
                    parse_host_port(spec)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
            # Normalise to a tuple so equality and hashing behave.
            object.__setattr__(self, "worker_hosts", tuple(self.worker_hosts))

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-safe dict that :meth:`from_dict` accepts unchanged."""
        payload: Dict[str, Any] = {
            spec.name: getattr(self, spec.name) for spec in fields(self)
        }
        if isinstance(payload["worker_hosts"], tuple):
            payload["worker_hosts"] = list(payload["worker_hosts"])
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DSRConfig":
        """Build a config from a dict, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"config payload must be a mapping, got {type(payload).__name__}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(unknown)}; "
                f"known keys: {', '.join(sorted(known))}"
            )
        try:
            return cls(**dict(payload))
        except TypeError as exc:
            raise ConfigError(f"malformed config payload: {exc}") from exc

    def replace(self, **overrides: Any) -> "DSRConfig":
        """Return a copy with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)


__all__ = ["ConfigError", "DSRConfig", "EPOCH_FLUSH_MODES", "PARTITIONERS"]
