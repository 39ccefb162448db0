"""Per-query tracing: span mechanics plus engine/service integration."""

import time

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.obs import QueryTrace, Span
from repro.service import DSRService, QueryRequest


class TestSpanMechanics:
    def test_span_contextmanager_times_the_block(self):
        trace = QueryTrace()
        with trace.span("work", step=1) as span:
            time.sleep(0.002)
        assert len(trace) == 1
        assert span.seconds >= 0.002
        assert span.attrs == {"step": 1}
        assert trace.spans[0] is span

    def test_add_and_event(self):
        trace = QueryTrace()
        trace.add("step1.shard", 0.05, partition=2)
        trace.event("stale_epoch_retry", epoch=3)
        assert trace.find("step1.shard").seconds == 0.05
        assert trace.find("stale_epoch_retry").seconds == 0.0
        assert trace.find("stale_epoch_retry").attrs["epoch"] == 3

    def test_find_all_matches_dotted_children(self):
        trace = QueryTrace()
        trace.add("step1", 0.1)
        trace.add("step1.shard", 0.04, partition=0)
        trace.add("step1.shard", 0.05, partition=1)
        trace.add("step3", 0.02)
        assert len(trace.find_all("step1")) == 3
        assert len(trace.find_all("step1.shard")) == 2
        assert trace.find("missing") is None

    def test_merge_child_splices_spans_and_attrs(self):
        parent, child = QueryTrace(), QueryTrace()
        parent.attrs["epoch"] = 3
        child.add("step1", 0.01, sharded=True)
        child.attrs.update(direction="forward", epoch=2)
        parent.merge_child(child)
        assert parent.find("step1").attrs == {"sharded": True}
        # The parent's own attributes win over the child's.
        assert parent.attrs == {"epoch": 3, "direction": "forward"}

    def test_wire_round_trip(self):
        trace = QueryTrace()
        trace.attrs["direction"] = "backward"
        trace.add("step1", 0.0125, payload_bytes=64)
        rebuilt = QueryTrace.from_dict(trace.to_dict())
        assert rebuilt.attrs == {"direction": "backward"}
        assert rebuilt.find("step1").seconds == pytest.approx(0.0125)
        assert rebuilt.find("step1").attrs == {"payload_bytes": 64}

    def test_span_dict_round_trip(self):
        span = Span(name="x", seconds=0.5, offset_seconds=0.25, attrs={"a": 1})
        assert Span.from_dict(span.to_dict()) == span


class TestEngineTracing:
    @pytest.fixture(scope="class")
    def engine(self):
        graph = generators.social_graph(150, avg_degree=5, seed=3)
        engine = open_engine(graph, DSRConfig(num_partitions=3, local_index="msbfs"))
        yield engine
        engine.close()

    def test_untraced_query_has_no_trace(self, engine):
        result = engine.run(ReachQuery((0, 1), (40, 50)))
        assert result.trace is None

    def test_traced_query_covers_the_three_steps(self, engine):
        result = engine.run(ReachQuery((0, 1, 2), (40, 50, 60), trace=True))
        trace = result.trace
        assert trace is not None
        assert "representation" not in trace.attrs
        assert trace.attrs["direction"] == "forward"
        assert trace.attrs["epoch"] == engine.epoch
        step1 = trace.find("step1")
        assert step1 is not None
        assert step1.attrs["partitions"] >= 1
        assert "payload_bytes" in step1.attrs
        bridge = trace.find("step2_bridge")
        assert bridge is not None
        assert bridge.attrs["messages"] >= 0

    def test_trace_reports_chosen_representation(self, engine):
        # One representation is left — the packed wire form — and every
        # executor builds it, so an in-process trace reports its bytes too.
        result = engine.run(ReachQuery((0, 1), (40, 50), trace=True))
        assert result.pairs == reachable_pairs(engine.graph, (0, 1), (40, 50))
        assert result.trace.attrs["sharded"] is False
        assert result.trace.find("step1").attrs["payload_bytes"] > 0

    def test_empty_query_still_returns_a_trace(self, engine):
        result = engine.run(ReachQuery((), (1,), trace=True))
        assert result.trace is not None
        assert result.trace.attrs.get("empty") is True

    def test_swapped_backward_result_keeps_trace(self):
        graph = generators.social_graph(100, avg_degree=4, seed=5)
        engine = open_engine(
            graph, DSRConfig(num_partitions=2, enable_backward=True)
        )
        try:
            result = engine.run(
                ReachQuery((0, 1, 2, 3), (40,), direction="backward", trace=True)
            )
            assert result.trace is not None
            assert result.trace.attrs["direction"] == "backward"
        finally:
            engine.close()


class TestServiceTracing:
    @pytest.fixture(scope="class")
    def service(self):
        graph = generators.social_graph(150, avg_degree=5, seed=3)
        engine = open_engine(graph, DSRConfig(num_partitions=3, local_index="msbfs"))
        service = DSRService(engine, num_workers=2)
        yield service
        service.close()
        engine.close()

    def test_response_carries_trace_dict(self, service):
        response = service.handle(QueryRequest((0, 1), (40, 50), trace=True))
        assert response.trace is not None
        names = [span["name"] for span in response.trace["spans"]]
        assert "plan" in names
        assert "step1" in names
        trace = response.query_trace
        assert isinstance(trace, QueryTrace)
        assert trace.find("plan").attrs == {"direction": response.direction}

    def test_untraced_response_has_none(self, service):
        response = service.handle(QueryRequest((0, 1), (41, 51)))
        assert response.trace is None
        assert response.query_trace is None

    def test_cache_hit_trace_shows_the_lookup(self, service):
        request = QueryRequest((2, 3), (42, 52), trace=True)
        first = service.handle(request)
        second = service.handle(request)
        assert not first.cached and second.cached
        lookup_spans = [
            span
            for span in second.trace["spans"]
            if span["name"] == "cache_lookup"
        ]
        assert lookup_spans and lookup_spans[0]["attrs"]["hit"] is True
        # The cached answer never ran the engine: no step spans.
        assert all(
            not span["name"].startswith("step") for span in second.trace["spans"]
        )
