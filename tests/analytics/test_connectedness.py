"""Tests for the community-connectedness application (Table 7)."""

import pytest

from repro.analytics.connectedness import CommunityConnectedness
from repro.graph import generators
from repro.graph.traversal import reachable_pairs


@pytest.fixture(scope="module")
def analysis():
    graph = generators.community_graph(
        num_communities=6, community_size=40, intra_prob=0.08, inter_prob=0.003, seed=7
    )
    return graph, CommunityConnectedness(graph, num_partitions=3, seed=2)


class TestConnectedness:
    def test_default_analysis_uses_two_largest_communities(self, analysis):
        _, cc = analysis
        report = cc.analyse(representatives=10)
        assert report.community_a != report.community_b
        assert report.num_sources <= 10
        assert report.num_targets <= 10

    def test_pairs_match_ground_truth(self, analysis):
        graph, cc = analysis
        report = cc.analyse(representatives=15, rng_seed=4)
        sources = {s for s, _ in report.pairs} | set()
        # Re-derive the representative sets deterministically and verify.
        import random

        rng = random.Random(4)
        expected_sources = cc.sample_representatives(report.community_a, 15, rng)
        expected_targets = cc.sample_representatives(report.community_b, 15, rng)
        assert report.pairs == reachable_pairs(graph, expected_sources, expected_targets)
        assert report.num_pairs == len(report.pairs)

    def test_specific_communities(self, analysis):
        _, cc = analysis
        sizes = cc.communities.communities_by_size()
        a, b = sizes[0][0], sizes[-1][0]
        report = cc.analyse(community_a=a, community_b=b, representatives=5)
        assert report.community_a == a
        assert report.community_b == b

    def test_sample_capped_by_community_size(self, analysis):
        _, cc = analysis
        community_id, size = cc.communities.communities_by_size()[0]
        sample = cc.sample_representatives(community_id, size + 100)
        assert len(sample) == size

    def test_reuses_prebuilt_engine(self):
        from repro.api import DSRConfig, open_engine

        graph = generators.community_graph(3, 25, seed=8)
        engine = open_engine(graph, DSRConfig(num_partitions=2, seed=1))
        cc = CommunityConnectedness(graph, engine=engine)
        assert cc.engine is engine
        report = cc.analyse(representatives=5)
        assert report.seconds >= 0
