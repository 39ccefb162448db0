"""The shard-protocol contract: one payload, two shards, one answer.

Steps 1 and 3 (``local_step`` / ``remote_step``) are written once over the
``QueryShard`` protocol.  The same payloads — recorded off real queries, so
they are exactly what ``_execute`` builds — must produce identical results
against both implementations: a ``WorkerShard`` hydrated from a pickled
blob, and the in-process ``EpochShard`` view.  Checked on a graph with overlap handles, with the
equivalence optimisation on and off, and across the flush that publishes
an isolated vertex (which shifts its partition's rank numbering).  A
wide query gives the same payloads and answers with every kernel call on
its python loop and on numpy, on every shard.  A blob is self-contained:
a fresh interpreter that shares nothing with the builder hydrates it and
answers the same.
"""

import os
import pickle
import random
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.api import DSRConfig, ReachQuery, open_engine
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


def _shards(state, rank):
    """Every implementation of the protocol for ``(state, rank)``."""
    compound, summary = state.compound_graphs[rank], state.summaries[rank]
    pickled = pickle.loads(
        pickle.dumps(build_shard_blob(rank, state.epoch, compound, summary))
    )
    return {
        "pickled": load_shard(pickled),
        "in-process": EpochShard(state, rank),
    }


def _assert_one_answer(state, recorded):
    steps_seen = set()
    for step, rank, payload in recorded:
        steps_seen.add(step)
        answers = {
            name: step(shard, payload) for name, shard in _shards(state, rank).items()
        }
        for name, answer in answers.items():
            assert answer == answers["in-process"], (
                f"{step.task_name} on rank {rank}: {name} shard diverges"
            )
    # The workload must really exercise both steps (handles were shipped).
    assert steps_seen == {local_step, remote_step}


@pytest.mark.parametrize("use_equivalence", [True, False])
def test_every_shard_gives_the_same_step_answers(use_equivalence, monkeypatch):
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
    _assert_one_answer(state, recorded)


def test_contract_holds_across_the_flush_that_publishes_a_vertex(monkeypatch):
    # Spaced ids so the inserted vertex (15) shifts every later rank.
    graph = generators.social_graph(240, avg_degree=3, reciprocity=0.4, seed=23)
    spaced = DiGraph.from_edges([(10 * u + 10, 10 * v + 10) for u, v in graph.edges()])
    engine = open_engine(spaced, DSRConfig(num_partitions=3, local_index="msbfs"))
    vertices = sorted(spaced.vertices())
    sources, targets = vertices[:20], vertices[-20:]
    published = engine.index.current_state()
    before = _record_payloads(engine, monkeypatch, sources, targets)
    _assert_one_answer(published, before)

    engine.insert_vertex(vertex=15)
    # The insert leaves the published epoch alone: its payloads still hold.
    assert engine.index.current_state() is published
    assert 15 not in published.assignment
    _assert_one_answer(published, before)

    # The next query publishes the vertex, shifting its partition's ranks.
    after = _record_payloads(engine, monkeypatch, [15, *sources], [15, *targets])
    state = engine.index.current_state()
    assert state.epoch == published.epoch + 1
    home = state.assignment[15]
    assert len(state.vertex_rank(home)) == len(published.vertex_rank(home)) + 1
    _assert_one_answer(state, after)


def test_every_shard_serves_the_steps_with_onepass_sweeps(monkeypatch):
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
        shards = _shards(state, rank)
        for name, shard in shards.items():
            with use_registry() as registry:
                step(shard, payload)
            per_tier = sweeps.setdefault(name, {})
            for tier in ("python", "numpy"):
                count = registry.counter_value("dsr_kernel_sweeps_total", tier=tier)
                if count:
                    per_tier[tier] = per_tier.get(tier, 0) + count
    assert set(sweeps) == set(shards)
    assert sweeps["in-process"]
    for name, per_tier in sweeps.items():
        assert per_tier == sweeps["in-process"], name


def test_wide_step_answers_are_identical_on_both_tiers(monkeypatch, crossover):
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
        shards = _shards(state, rank)
        answers = {}
        for side in sides:
            crossover.force(side)
            for name, shard in shards.items():
                answers[side, name] = pickle.dumps(step(shard, payload))
        reference = answers["python", "in-process"]
        for key, answer in answers.items():
            assert answer == reference, f"{step.task_name} on rank {rank}: {key} diverges"
    assert set(served) == {"np_gather_rows", "np_unpack_rows", "np_invert_rows"}
    engine.close()


def test_blob_hydrates_in_a_fresh_interpreter(monkeypatch, tmp_path):
    # No fork, no inherited module state: the worker side gets the pickled
    # blob and the recorded payloads as bytes, like a remote host does.
    graph = generators.social_graph(240, avg_degree=3, reciprocity=0.4, seed=19)
    engine = open_engine(graph, DSRConfig(num_partitions=3, local_index="msbfs"))
    state = engine.index.current_state()
    vertices = sorted(graph.vertices())
    recorded = _record_payloads(engine, monkeypatch, vertices[:24], vertices[-24:])
    assert {step for step, _, _ in recorded} == {local_step, remote_step}
    blobs = {
        rank: build_shard_blob(
            rank, state.epoch, state.compound_graphs[rank], state.summaries[rank]
        )
        for rank in {rank for _, rank, _ in recorded}
    }
    (tmp_path / "in.pickle").write_bytes(pickle.dumps((blobs, recorded)))
    script = textwrap.dedent(
        """
        import pickle, sys
        from repro.core.shard_exec import load_shard

        with open(sys.argv[1], "rb") as handle:
            blobs, recorded = pickle.load(handle)
        shards = {rank: load_shard(blob) for rank, blob in blobs.items()}
        answers = [step(shards[rank], payload) for step, rank, payload in recorded]
        with open(sys.argv[2], "wb") as handle:
            pickle.dump(answers, handle)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    completed = subprocess.run(
        [sys.executable, "-c", script, tmp_path / "in.pickle", tmp_path / "out.pickle"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    answers = pickle.loads((tmp_path / "out.pickle").read_bytes())
    expected = [
        step(EpochShard(state, rank), payload) for step, rank, payload in recorded
    ]
    assert answers == expected
    engine.close()
