"""Leak guard: nothing the benchmark started may outlive it.

Every child is started with ``TAG_VAR=<tag>`` in its environment, and
children inherit it, so a scan of ``/proc/*/environ`` finds the whole tree
whatever became of the parent links.  Survivors are killed, counted and
fail the run; shard segments of ``repro.cluster.shm`` that appeared in
``/dev/shm`` meanwhile are unlinked and counted the same way.
"""

from __future__ import annotations

import os
import re
import signal
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Set

TAG_VAR = "SPINE_RUN_TAG"
_SHM = Path("/dev/shm")
#: ``ShmLedger`` names its segments ``dsr<pid>_<serial>_e<epoch>_r<rank>``;
#: nothing else in /dev/shm is the benchmark's to count or remove.
_SEGMENT = re.compile(r"dsr\d+_\d+_e\d+_r\d+")


def tagged_pids(tag: str) -> List[int]:
    """Pids (other than ours) whose environment carries ``tag``."""
    needle = f"{TAG_VAR}={tag}".encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            environ = (entry / "environ").read_bytes()
        except OSError:  # gone, or not ours to read
            continue
        if needle in environ.split(b"\0"):
            found.append(int(entry.name))
    return sorted(found)


def shm_entries() -> Set[str]:
    try:
        return {e.name for e in _SHM.iterdir() if _SEGMENT.fullmatch(e.name)}
    except OSError:
        return set()


@dataclass
class LeakReport:
    processes: List[int] = field(default_factory=list)
    segments: List[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.processes) + len(self.segments)

    def as_dict(self) -> Dict[str, object]:
        return {"processes": self.processes, "segments": self.segments}


class LeakGuard:
    """Scope of one benchmark run: ``env()`` for children, ``sweep()`` after."""

    def __init__(self, grace_seconds: float = 2.0) -> None:
        self.tag = uuid.uuid4().hex
        self.grace_seconds = grace_seconds
        self._shm_before = shm_entries()
        self.report = LeakReport()

    def env(self, **extra: str) -> Dict[str, str]:
        return {**os.environ, TAG_VAR: self.tag, **extra}

    def sweep(self) -> LeakReport:
        """Kill tagged survivors and unlink new shm segments; returns the total.

        A just-reaped child's helpers (multiprocessing's resource tracker)
        exit on their own once its pipes close, so survivors get a short
        grace period before they count as leaked.
        """
        deadline = time.monotonic() + self.grace_seconds
        survivors = tagged_pids(self.tag)
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = tagged_pids(self.tag)
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            self.report.processes.append(pid)
        # Killed processes are reaped by init; wait until /proc forgets them.
        deadline = time.monotonic() + self.grace_seconds
        while survivors and tagged_pids(self.tag) and time.monotonic() < deadline:
            time.sleep(0.05)
        for name in sorted(shm_entries() - self._shm_before):
            try:
                (_SHM / name).unlink()
            except OSError:
                continue
            self.report.segments.append(name)
        return self.report
