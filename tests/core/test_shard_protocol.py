"""The shard-protocol contract: one payload, three shards, one answer.

Steps 1 and 3 (``local_step`` / ``remote_step``) are written once over the
``QueryShard`` protocol.  The same payloads — recorded off real queries, so
they are exactly what ``_execute`` builds — must produce identical results
against every implementation: a ``WorkerShard`` hydrated from a pickled
blob, one hydrated from a shared-memory segment, and the in-process
``EpochShard`` view.  Checked on a graph with overlap handles, with the
equivalence optimisation on and off, and across an in-place
isolated-vertex insert (which shifts the rank numbering mid-epoch).  A
wide query gives the same payloads and answers with every kernel call on
its python loop and on numpy, on every shard.
"""

import pickle
import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.cluster.executors import StaleEpochError
from repro.cluster.shm import ShmLedger, shm_available
from repro.core import query as query_module
from repro.core.shard_exec import (
    EpochShard,
    build_shard_blob,
    load_shard,
    local_step,
    remote_step,
)
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs
from repro.obs import use_registry
from repro.reachability import kernels


def _record_payloads(engine, monkeypatch, sources, targets):
    """Run one query in-process; return its ``[(step, rank, payload)]``."""
    recorded = []

    def recording(step):
        def run(shard, payload):
            recorded.append((step, shard.rank, payload))
            return step(shard, payload)

        return run

    with monkeypatch.context() as patch:
        patch.setattr(query_module, "local_step", recording(local_step))
        patch.setattr(query_module, "remote_step", recording(remote_step))
        result = engine.run(ReachQuery(sources, targets))
    assert result.pairs == reachable_pairs(engine.graph, sources, targets)
    return recorded


def _shards(state, rank, ledger):
    """Every implementation of the protocol for ``(state, rank)``."""
    compound, summary = state.compound_graphs[rank], state.summaries[rank]
    pickled = pickle.loads(
        pickle.dumps(build_shard_blob(rank, state.epoch, compound, summary))
    )
    shards = {
        "pickled": load_shard(pickled),
        "in-process": EpochShard(state, rank),
    }
    if ledger is not None:
        blob = build_shard_blob(rank, state.epoch, compound, summary, ledger=ledger)
        assert blob.shm_segment is not None
        shards["shm"] = load_shard(blob)
    return shards


def _assert_one_answer(state, recorded, ledger):
    steps_seen = set()
    for step, rank, payload in recorded:
        steps_seen.add(step)
        shards = _shards(state, rank, ledger)
        try:
            answers = {name: step(shard, payload) for name, shard in shards.items()}
        finally:
            for name in ("pickled", "shm"):
                if name in shards:
                    shards[name].close()
        for name, answer in answers.items():
            assert answer == answers["in-process"], (
                f"{step.task_name} on rank {rank}: {name} shard diverges"
            )
    # The workload must really exercise both steps (handles were shipped).
    assert steps_seen == {local_step, remote_step}


@pytest.fixture
def ledger():
    if not shm_available():
        yield None
        return
    ledger = ShmLedger(prefix="dsrtest")
    yield ledger
    ledger.close()


@pytest.mark.parametrize("use_equivalence", [True, False])
def test_every_shard_gives_the_same_step_answers(use_equivalence, ledger, monkeypatch):
    # A reciprocal graph: dozens of overlap vertices (handles that are in-
    # and out-boundary at once) next to interior targets that need step 3.
    graph = generators.social_graph(240, avg_degree=3, reciprocity=0.4, seed=19)
    engine = open_engine(
        graph,
        DSRConfig(num_partitions=3, local_index="msbfs", use_equivalence=use_equivalence),
    )
    state = engine.index.current_state()
    summaries = state.summaries.values()
    assert any(s.in_boundaries & s.out_boundaries for s in summaries)
    vertices = sorted(graph.vertices())
    recorded = _record_payloads(engine, monkeypatch, vertices[:24], vertices[-24:])
    _assert_one_answer(state, recorded, ledger)


def test_contract_holds_across_an_in_place_vertex_insert(ledger, monkeypatch):
    # Spaced ids so the inserted vertex (15) shifts every later rank.
    graph = generators.social_graph(240, avg_degree=3, reciprocity=0.4, seed=23)
    spaced = DiGraph.from_edges([(10 * u + 10, 10 * v + 10) for u, v in graph.edges()])
    engine = open_engine(spaced, DSRConfig(num_partitions=3, local_index="msbfs"))
    vertices = sorted(spaced.vertices())
    sources, targets = vertices[:20], vertices[-20:]
    before = _record_payloads(engine, monkeypatch, sources, targets)
    _assert_one_answer(engine.index.current_state(), before, ledger)

    engine.insert_vertex(vertex=15)  # in place: same epoch, shifted numbering
    state = engine.index.current_state()
    assert state.epoch == 0
    home = state.assignment[15]
    after = _record_payloads(engine, monkeypatch, sources, targets)
    _assert_one_answer(state, after, ledger)

    # A payload packed on the far side of the insert is refused by every
    # implementation, never decoded against the shifted numbering.
    stale = [(step, rank, payload) for step, rank, payload in before if rank == home]
    assert stale
    for step, rank, payload in stale:
        for name, shard in _shards(state, rank, ledger).items():
            with pytest.raises(StaleEpochError):
                step(shard, payload)
            if name != "in-process":
                shard.close()


def test_every_shard_serves_the_steps_with_onepass_sweeps(ledger, monkeypatch):
    # Hydration must not lose the condensation's numbering property: the
    # sweeps refuse a snapshot whose edges do not descend, so a shard that
    # lost it raises ValueError here instead of answering.  Every shard must
    # also sweep exactly as often, on the same tiers, as the in-process one.
    graph = generators.social_graph(240, avg_degree=3, reciprocity=0.4, seed=19)
    engine = open_engine(graph, DSRConfig(num_partitions=3, local_index="msbfs"))
    state = engine.index.current_state()
    vertices = sorted(graph.vertices())
    recorded = _record_payloads(engine, monkeypatch, vertices[:24], vertices[-24:])
    assert {step for step, _, _ in recorded} == {local_step, remote_step}
    sweeps = {}
    for step, rank, payload in recorded:
        shards = _shards(state, rank, ledger)
        try:
            for name, shard in shards.items():
                with use_registry() as registry:
                    step(shard, payload)
                per_tier = sweeps.setdefault(name, {})
                for tier in ("python", "numpy"):
                    count = registry.counter_value("dsr_kernel_sweeps_total", tier=tier)
                    if count:
                        per_tier[tier] = per_tier.get(tier, 0) + count
        finally:
            for name in ("pickled", "shm"):
                if name in shards:
                    shards[name].close()
    assert set(sweeps) == set(shards)
    assert sweeps["in-process"]
    for name, per_tier in sweeps.items():
        assert per_tier == sweeps["in-process"], name


def test_wide_step_answers_are_identical_on_both_tiers(ledger, monkeypatch, crossover):
    # A 128x128 query, run from the fixture's side and then from the other:
    # the numpy side must serve the batched row calls and give
    # byte-identical payloads and answers, on every shard, to the python
    # loops.
    graph = generators.dag(600, 2400, seed=7)
    engine = open_engine(graph, DSRConfig(num_partitions=2, local_index="msbfs"))
    state = engine.index.current_state()
    rng = random.Random(3)
    vertices = sorted(graph.vertices())
    sources = rng.sample(vertices, 128)
    targets = rng.sample(vertices, 128)
    served = {}
    for name in ("np_gather_rows", "np_unpack_rows", "np_invert_rows"):
        def spy(*args, _name=name, _real=getattr(kernels, name)):
            served[_name] = served.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(kernels, name, spy)
    sides = (crossover.side, "numpy" if crossover.side == "python" else "python")
    by_side = {}
    for side in sides:
        crossover.force(side)
        by_side[side] = _record_payloads(engine, monkeypatch, sources, targets)
    # The parent inverts the inbox on both sides identically: the step-3
    # payloads (and so every payload) are byte-identical.
    assert pickle.dumps(by_side["python"]) == pickle.dumps(by_side["numpy"])
    recorded = by_side["numpy"]
    assert {step for step, _, _ in recorded} == {local_step, remote_step}
    for step, rank, payload in recorded:
        shards = _shards(state, rank, ledger)
        try:
            answers = {}
            for side in sides:
                crossover.force(side)
                for name, shard in shards.items():
                    answers[side, name] = pickle.dumps(step(shard, payload))
        finally:
            for name in ("pickled", "shm"):
                if name in shards:
                    shards[name].close()
        reference = answers["python", "in-process"]
        for key, answer in answers.items():
            assert answer == reference, f"{step.task_name} on rank {rank}: {key} diverges"
    assert set(served) == {"np_gather_rows", "np_unpack_rows", "np_invert_rows"}
    engine.close()
