"""The public surface is warning-free — and carries no shims.

The pre-``repro.api`` entry points (``DSREngine(graph, num_partitions=...)``,
``engine.query(sources, targets)``, ``engine.query_with_stats(...)``) are
gone; tier-1 runs under ``-W error::DeprecationWarning``, and these tests pin
the documented construction path.
"""

import warnings

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.core.engine import DSREngine
from repro.graph import generators


@pytest.fixture(scope="module")
def graph():
    return generators.random_digraph(40, 110, seed=9)


class TestNewSurfaceIsClean:
    """The documented replacement path emits no DeprecationWarning at all."""

    def test_config_registry_run_roundtrip_is_warning_free(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = DSRConfig.from_dict(
                DSRConfig(num_partitions=3, local_index="msbfs").to_dict()
            )
            engine = open_engine(graph, config)
            result = engine.run(ReachQuery((0, 1, 2), (10, 11)))
            assert result.rounds >= 1
            assert engine.reachable(0, 1) in (True, False)
            engine.insert_edge(0, 1)
            assert engine.reachable(0, 1)

    def test_from_config_is_warning_free(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine = DSREngine.from_config(
                graph, DSRConfig(num_partitions=2), partitioning=None
            )
            engine.build_index()
            assert engine.config == DSRConfig(num_partitions=2)

    def test_from_config_rejects_foreign_backend(self, graph):
        with pytest.raises(ValueError, match="backend='dsr'"):
            DSREngine.from_config(graph, DSRConfig(backend="giraph"))

    def test_config_reconciled_to_supplied_partitioning(self, graph):
        # engine.config must keep describing the engine faithfully even when
        # a pre-computed partitioning overrides the config's partition count.
        from repro.partition.partition import make_partitioning

        partitioning = make_partitioning(graph, 5, strategy="hash", seed=1)
        engine = DSREngine.from_config(
            graph, DSRConfig(num_partitions=3), partitioning=partitioning
        )
        assert engine.config.num_partitions == 5
        assert engine.partitioning is partitioning
