"""End-to-end integration tests across subsystems.

These tests wire several subsystems together the way the examples and
benchmarks do: dataset generator → partitioner → DSR index → queries →
updates → applications, and cross-check every answer against ground truth or
an independent implementation.
"""

import random


from repro.analytics.connectedness import CommunityConnectedness
from repro.bench.datasets import load_dataset
from repro.bench.runner import ExperimentRunner
from repro.bench.workloads import random_query
from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.sparql.baseline import VirtuosoLikeEngine
from repro.sparql.engine import PropertyPathEngine
from repro.sparql.lubm import generate_lubm_triples, lubm_queries
from repro.sparql.rdf import TripleStore


class TestFullPipeline:
    def test_dataset_to_query_pipeline(self):
        graph = load_dataset("berkstan", scale=0.2, seed=5)
        engine = open_engine(graph, DSRConfig(num_partitions=5, local_index="msbfs", seed=5))
        sources, targets = random_query(graph, 10, 10, seed=6)
        assert engine.run(ReachQuery(sources, targets)).pairs == reachable_pairs(graph, sources, targets)

    def test_every_approach_agrees_on_one_workload(self):
        graph = load_dataset("notredame", scale=0.2, seed=6)
        runner = ExperimentRunner(graph, num_partitions=4, local_index="msbfs", seed=6)
        sources, targets = random_query(graph, 6, 6, seed=7)
        results = runner.run(
            ["dsr", "dsr-noeq", "giraph", "giraph++", "giraph++weq", "dsr-fan"],
            sources,
            targets,
        )
        assert len({result.num_pairs for result in results}) == 1

    def test_query_after_mixed_update_sequence(self):
        graph = generators.web_graph(180, avg_degree=5, seed=8)
        engine = open_engine(graph, DSRConfig(num_partitions=4, local_index="msbfs", seed=8))
        rng = random.Random(8)
        vertices = sorted(graph.vertices())

        # Interleave insertions, deletions and queries; always verify.
        for step in range(3):
            existing = sorted(graph.edges())
            removal = rng.choice(existing)
            engine.delete_edge(*removal)
            u, v = rng.sample(vertices, 2)
            engine.insert_edge(u, v)
            new_vertex = engine.insert_vertex()
            engine.insert_edge(new_vertex, rng.choice(vertices))

            sources = rng.sample(vertices, 6)
            targets = rng.sample(vertices, 6) + [new_vertex]
            assert engine.run(ReachQuery(sources, targets)).pairs == reachable_pairs(
                graph, sources, targets
            )

    def test_sparql_pipeline_against_baseline(self):
        store = TripleStore()
        store.add_all(generate_lubm_triples(3, 3, 3, 3, seed=9))
        dsr_engine = PropertyPathEngine(store, num_slaves=3)
        baseline = VirtuosoLikeEngine(store)
        for name, text in lubm_queries().items():
            dsr_result = dsr_engine.execute(text)
            baseline_result = baseline.execute(text)
            assert {
                tuple(sorted(b.items())) for b in dsr_result.bindings
            } == {tuple(sorted(b.items())) for b in baseline_result.bindings}, name

    def test_community_application_on_dataset(self):
        graph = generators.community_graph(5, 30, intra_prob=0.1, seed=10)
        analysis = CommunityConnectedness(graph, num_partitions=3, seed=3)
        report = analysis.analyse(representatives=8)
        sources = analysis.sample_representatives(report.community_a, 8)
        # All reported pairs must be genuine.
        for s, t in report.pairs:
            assert reachable_pairs(graph, [s], [t]) == {(s, t)}

    def test_paper_narrative_single_machine_vs_cluster(self):
        """The same query must be answerable with 1 or many slaves."""
        graph = load_dataset("livej20", scale=0.15, seed=11)
        sources, targets = random_query(graph, 8, 8, seed=11)
        expected = reachable_pairs(graph, sources, targets)
        for slaves in (1, 3, 6):
            engine = open_engine(
                graph,
                DSRConfig(num_partitions=slaves, local_index="msbfs", seed=11),
            )
            assert engine.run(ReachQuery(sources, targets)).pairs == expected
