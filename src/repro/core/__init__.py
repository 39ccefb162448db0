"""The paper's primary contribution: Distributed Set Reachability (DSR).

Contract: turns a partitioned graph into a distributed index (summaries →
one broadcast → compound graphs) and answers any ``S ⇝ T`` query in ONE
communication round, staying consistent under incremental updates.  Builds
on :mod:`repro.graph` / :mod:`repro.reachability` / :mod:`repro.partition` /
:mod:`repro.cluster`; per-partition evaluation runs the CSR-snapshot
strategies (see ``docs/ARCHITECTURE.md``).

Layout (Section 3 of the paper → modules):

* :mod:`repro.core.equivalence` — forward/backward equivalence sets over the
  partition boundaries (Definition 5, Algorithm 3).
* :mod:`repro.core.summary` — the per-partition reachability summary that a
  slave shares with every other slave (the ``I_j ⇝ O_j`` information that,
  merged with the cut, forms the boundary graph of Definition 4).
* :mod:`repro.core.boundary_graph` — explicit boundary-graph construction
  (Definition 4), used for Table 4 and for testing.
* :mod:`repro.core.compound_graph` — the compound graphs ``G^C_i``
  (Definition 6) plus forward/backward handle lists.
* :mod:`repro.core.index` — :class:`DSRIndex`, the distributed index build.
* :mod:`repro.core.query` — one-round distributed query evaluation
  (Algorithms 1 and 2): payloads, the message round, dispatch.
* :mod:`repro.core.shard_exec` — the two per-slave steps, written once over
  the shard protocol, and its worker-side / in-process implementations.
* :mod:`repro.core.naive` / :mod:`repro.core.fan` — the DSR-Naïve and DSR-Fan
  baselines (Sections 3.1 and 3.2).
* :mod:`repro.core.updates` — incremental edge/vertex insertions and
  deletions (Section 3.3.3).
* :mod:`repro.core.engine` — :class:`DSREngine`, the public API.
"""

from repro.core.engine import DSREngine
from repro.core.fan import DSRFan
from repro.core.index import DSRIndex
from repro.core.naive import DSRNaive
from repro.core.query import QueryResult

__all__ = ["DSREngine", "DSRIndex", "DSRFan", "DSRNaive", "QueryResult"]
