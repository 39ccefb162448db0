"""Round-trip and validation tests for the service wire protocol."""

import io

import pytest

from repro.api import ReachQuery
from repro.service.protocol import (
    BINARY_FRAMING_MIN_VERSION,
    OversizedFrameError,
    pack_frame,
    recv_message_versioned,
    unpack_frame,
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    ErrorResponse,
    MetricsRequest,
    MetricsResponse,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    SnapshotRequest,
    SnapshotResponse,
    StatsRequest,
    StatsResponse,
    UpdateRequest,
    UpdateResponse,
    decode,
    dumps,
    encode,
    loads,
    loads_versioned,
    recv_message,
    send_message,
    wire_version,
)

ALL_MESSAGES = [
    QueryRequest((1, 2, 3), (9, 8), direction="forward", use_cache=False),
    UpdateRequest("insert-edge", 4, 7),
    UpdateRequest("insert-vertex", partition_id=2),
    UpdateRequest("flush"),
    StatsRequest(),
    SnapshotRequest(),
    MetricsRequest(),
    QueryResponse(pairs=((1, 9), (2, 8)), cached=True, direction="backward",
                  num_batches=2, latency_seconds=0.25, messages_sent=3,
                  bytes_sent=512),
    QueryResponse(pairs=((1, 9),),
                  trace={"attrs": {"representation": "bits"},
                         "spans": [{"name": "step1", "seconds": 0.001,
                                    "offset_seconds": 0.0, "attrs": {}}]}),
    MetricsResponse(text="# TYPE dsr_queries_total counter\n"
                         "dsr_queries_total 3\n"),
    UpdateResponse(op="delete-edge", structural_change=True,
                   affected_partitions=(2, 0), latency_seconds=0.01),
    StatsResponse(stats={"queries": 5, "cache_hit_rate": 0.6}),
    SnapshotResponse(snapshot={"messages_sent": 2, "rounds": 1}),
    ErrorResponse(error="ValueError", message="unknown vertex 42"),
]


class TestRoundTrip:
    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_json_line_round_trip(self, message):
        assert loads(dumps(message)) == message

    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_dict_round_trip(self, message):
        assert decode(encode(message)) == message

    def test_stream_framing_preserves_order(self):
        stream = io.StringIO()
        for message in ALL_MESSAGES:
            send_message(stream, message)
        stream.seek(0)
        received = []
        while True:
            message = recv_message(stream)
            if message is None:
                break
            received.append(message)
        assert received == ALL_MESSAGES


class TestNormalisation:
    def test_query_request_coerces_to_tuples(self):
        request = QueryRequest([3, 1], [2])
        assert request.sources == (3, 1)
        assert request.targets == (2,)

    def test_query_response_sorts_pairs(self):
        response = QueryResponse(pairs=[(5, 1), (2, 9), (2, 3)])
        assert response.pairs == ((2, 3), (2, 9), (5, 1))
        assert response.pair_set == {(5, 1), (2, 9), (2, 3)}

    def test_update_response_sorts_partitions(self):
        assert UpdateResponse(op="flush", affected_partitions=(3, 1)).affected_partitions == (1, 3)


class TestValidation:
    def test_bad_direction_rejected(self):
        with pytest.raises(ProtocolError):
            QueryRequest((1,), (2,), direction="sideways")

    def test_bad_update_op_rejected(self):
        with pytest.raises(ProtocolError):
            UpdateRequest("truncate")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            decode({"kind": "teleport"})

    def test_untagged_payload_rejected(self):
        with pytest.raises(ProtocolError):
            decode({"sources": [1], "targets": [2]})

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError):
            loads("{not json")

    def test_encode_rejects_foreign_objects(self):
        with pytest.raises(ProtocolError):
            encode(object())

    def test_decode_ignores_unknown_fields(self):
        payload = encode(StatsRequest())
        payload["extra"] = "future-field"
        assert decode(payload) == StatsRequest()


class TestVersioning:
    def test_encode_stamps_current_version(self):
        payload = encode(StatsRequest())
        assert payload["version"] == PROTOCOL_VERSION

    @pytest.mark.parametrize("foreign", [1, PROTOCOL_VERSION + 1, "2", None])
    def test_mismatched_version_rejected(self, foreign):
        payload = encode(StatsRequest())
        payload["version"] = foreign
        with pytest.raises(ProtocolError, match="version"):
            decode(payload)

    @pytest.mark.parametrize(
        "supported", list(range(MIN_PROTOCOL_VERSION, PROTOCOL_VERSION + 1))
    )
    def test_supported_version_range_accepted(self, supported):
        payload = encode(StatsRequest())
        payload["version"] = supported
        assert decode(payload) == StatsRequest()

    def test_missing_version_treated_as_current(self):
        payload = encode(StatsRequest())
        del payload["version"]
        assert decode(payload) == StatsRequest()

    def test_version_survives_the_wire(self):
        import json

        frame = json.loads(dumps(QueryRequest((1,), (2,))))
        assert frame["version"] == PROTOCOL_VERSION


class TestVersionNegotiation:
    """Version-3 additions degrade cleanly when talking to version-2 peers."""

    def test_encode_for_v2_strips_query_trace(self):
        payload = encode(QueryRequest((1,), (2,), trace=True), version=2)
        assert "trace" not in payload
        assert payload["version"] == 2
        # The stripped frame still decodes — trace falls back to its default.
        assert decode(payload) == QueryRequest((1,), (2,), trace=False)

    def test_encode_for_v2_strips_response_trace(self):
        response = QueryResponse(
            pairs=((1, 2),), trace={"attrs": {}, "spans": []}
        )
        payload = encode(response, version=2)
        assert "trace" not in payload
        assert decode(payload) == QueryResponse(pairs=((1, 2),), trace=None)

    def test_trace_round_trips_at_current_version(self):
        trace = {"attrs": {"representation": "bits"}, "spans": []}
        request = QueryRequest((1,), (2,), trace=True)
        response = QueryResponse(pairs=(), trace=trace)
        assert loads(dumps(request)).trace is True
        assert loads(dumps(response)).trace == trace

    def test_v2_frame_from_old_client_decodes(self):
        # An old client has no idea trace exists: its frames omit the field
        # and claim version 2.  The server must accept them unchanged.
        payload = encode(QueryRequest((3,), (4,), direction="forward"))
        payload.pop("trace")
        payload["version"] = 2
        decoded = decode(payload)
        assert decoded == QueryRequest((3,), (4,), direction="forward")
        assert decoded.trace is False

    def test_metrics_kind_requires_v3(self):
        with pytest.raises(ProtocolError, match="metrics"):
            encode(MetricsRequest(), version=2)
        payload = encode(MetricsRequest())
        payload["version"] = 2
        with pytest.raises(ProtocolError, match="metrics"):
            decode(payload)

    def test_encode_rejects_unsupported_target_version(self):
        with pytest.raises(ProtocolError, match="version"):
            encode(StatsRequest(), version=1)
        with pytest.raises(ProtocolError, match="version"):
            encode(StatsRequest(), version=PROTOCOL_VERSION + 1)

    def test_loads_versioned_reports_wire_version(self):
        message, version = loads_versioned(
            dumps(StatsRequest(), version=MIN_PROTOCOL_VERSION)
        )
        assert message == StatsRequest()
        assert version == MIN_PROTOCOL_VERSION
        assert wire_version(encode(StatsRequest())) == PROTOCOL_VERSION


class TestVersionFourTenants:
    """Version-4 adds the fleet's tenant label; older peers never see it."""

    def test_encode_for_v3_strips_tenant(self):
        payload = encode(QueryRequest((1,), (2,), tenant="analytics"), version=3)
        assert "tenant" not in payload
        assert payload["version"] == 3
        # The stripped frame still decodes — tenant falls back to None.
        assert decode(payload) == QueryRequest((1,), (2,), tenant=None)

    def test_tenant_round_trips_at_current_version(self):
        request = QueryRequest((1,), (2,), tenant="analytics")
        decoded = loads(dumps(request))
        assert decoded.tenant == "analytics"
        assert decoded == request

    def test_old_client_frame_without_tenant_decodes(self):
        payload = encode(QueryRequest((3,), (4,)))
        payload.pop("tenant")
        payload["version"] = 3
        decoded = decode(payload)
        assert decoded.tenant is None

    def test_from_query_carries_the_tenant(self):
        query = ReachQuery((1,), (2,), tenant="crm")
        assert QueryRequest.from_query(query).tenant == "crm"


class TestReachQueryBridge:
    """QueryRequest is a thin serialisation of the API's ReachQuery."""

    def test_query_request_is_a_reach_query(self):
        request = QueryRequest((1, 2), (3,), direction="forward")
        assert isinstance(request, ReachQuery)
        assert request.sources == (1, 2)

    def test_plain_reach_query_encodes_as_query_message(self):
        query = ReachQuery((1, 2), (3,), use_cache=False)
        decoded = decode(encode(query))
        assert isinstance(decoded, QueryRequest)
        assert decoded.sources == query.sources
        assert decoded.targets == query.targets
        assert decoded.use_cache is False

    def test_from_query_round_trip(self):
        query = ReachQuery((4,), (5,), direction="backward")
        request = QueryRequest.from_query(query)
        assert request.direction == "backward"
        assert QueryRequest.from_query(request) is request

    def test_removed_representation_key_is_dropped_on_the_wire_only(self):
        # Peers up to v6 may still send the removed knob: the wire drops
        # keys a message class does not know, the API rejects them.
        from repro.api.query import QueryError

        payload = encode(QueryRequest((1,), (2,)), version=4)
        payload["representation"] = "sets"
        assert decode(payload) == QueryRequest((1,), (2,))
        with pytest.raises(QueryError, match="representation"):
            ReachQuery.from_dict(
                {"sources": [1], "targets": [2], "representation": "bits"}
            )

    def test_batch_budget_travels_the_wire(self):
        # ...from peers of every live version that still send the removed
        # optional field, and is dropped on arrival: the frame stays a valid
        # query and the protocol version did not move.
        assert PROTOCOL_VERSION == 6
        for version in range(MIN_PROTOCOL_VERSION, PROTOCOL_VERSION + 1):
            payload = encode(QueryRequest((1,), (2,)), version=version)
            payload["max_batch_pairs"] = 16
            decoded = decode(payload)
            assert decoded == QueryRequest((1,), (2,))
            assert not hasattr(decoded, "max_batch_pairs")
        assert "max_batch_pairs" not in encode(QueryRequest((1,), (2,)))


class TestBinaryFraming:
    """Version-5 adds length-prefixed binary frames for the async front door."""

    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_frame_round_trip(self, message):
        frame = pack_frame(message)
        unpacked = unpack_frame(frame)
        assert unpacked is not None
        decoded, version, request_id, consumed = unpacked
        assert decoded == message
        assert version == PROTOCOL_VERSION
        assert request_id is None
        assert consumed == len(frame)

    def test_request_id_round_trips(self):
        frame = pack_frame(StatsRequest(), request_id=42)
        message, _version, request_id, _consumed = unpack_frame(frame)
        assert message == StatsRequest()
        assert request_id == 42

    def test_partial_buffer_returns_none(self):
        frame = pack_frame(StatsRequest())
        for cut in (0, 1, 4, len(frame) - 1):
            assert unpack_frame(frame[:cut]) is None

    def test_back_to_back_frames_consume_sequentially(self):
        messages = [StatsRequest(), SnapshotRequest(), MetricsRequest()]
        buffer = bytearray()
        for request_id, message in enumerate(messages):
            buffer.extend(pack_frame(message, request_id=request_id))
        received = []
        while buffer:
            message, _version, request_id, consumed = unpack_frame(buffer)
            received.append((request_id, message))
            del buffer[:consumed]
        assert received == list(enumerate(messages))

    def test_oversized_frame_rejected_from_header_alone(self):
        frame = pack_frame(StatsRequest())
        header = frame[:5]  # u32 length + u8 version, no body attached
        import struct

        huge = struct.pack(">I", 64 * 1024 * 1024) + header[4:5]
        with pytest.raises(OversizedFrameError, match="exceeds"):
            unpack_frame(huge, max_frame_bytes=1024)

    def test_pack_frame_refuses_pre_framing_versions(self):
        with pytest.raises(ProtocolError, match="version"):
            pack_frame(StatsRequest(), version=BINARY_FRAMING_MIN_VERSION - 1)

    def test_pack_frame_sender_side_cap(self):
        # Senders can enforce the receiver's cap before the frame hits the
        # wire, so an oversized reply becomes a typed error instead of a
        # frame the peer is guaranteed to reject.
        message = QueryResponse(pairs=tuple((i, i + 1) for i in range(64)))
        frame = pack_frame(message)
        # The cap covers the version byte + body (len - u32 prefix):
        # exactly at the cap still packs, one byte under it raises.
        assert pack_frame(message, max_frame_bytes=len(frame) - 4) == frame
        with pytest.raises(OversizedFrameError, match="exceeds"):
            pack_frame(message, max_frame_bytes=len(frame) - 5)

    def test_frame_with_old_version_byte_rejected(self):
        import struct

        body = b'{"kind": "stats"}'
        frame = struct.pack(">IB", 1 + len(body), 4) + body
        with pytest.raises(ProtocolError, match="version"):
            unpack_frame(frame)

    def test_frame_with_garbage_body_rejected(self):
        import struct

        body = b"\x00\x01 not json"
        frame = struct.pack(">IB", 1 + len(body), PROTOCOL_VERSION) + body
        with pytest.raises(ProtocolError):
            unpack_frame(frame)

    def test_binary_frames_never_start_with_a_brace(self):
        # The async server autodetects newline-JSON peers by a leading '{';
        # the frame cap keeps the length's first byte 0x00 so the two
        # framings can never be confused.
        for message in ALL_MESSAGES:
            assert pack_frame(message)[0] == 0x00

    def test_line_cap_raises_oversized(self):
        stream = io.StringIO(dumps(StatsRequest()) * 100)
        with pytest.raises(OversizedFrameError, match="line"):
            recv_message_versioned(stream, max_bytes=64)

    def test_line_under_cap_still_decodes(self):
        stream = io.StringIO(dumps(StatsRequest()))
        message, version = recv_message_versioned(stream, max_bytes=65536)
        assert message == StatsRequest()
        assert version == PROTOCOL_VERSION


class TestVersionFiveNegotiation:
    """v5 frames carry every gated field; packing for old peers strips them."""

    def test_v5_frame_keeps_trace_and_tenant(self):
        request = QueryRequest((1,), (2,), trace=True, tenant="analytics")
        message, version, _id, _consumed = unpack_frame(pack_frame(request))
        assert version == PROTOCOL_VERSION
        assert message.trace is True
        assert message.tenant == "analytics"

    @pytest.mark.parametrize(
        "version,keeps_trace,keeps_tenant",
        [(2, False, False), (3, True, False), (4, True, True)],
    )
    def test_json_encode_strips_gated_fields_per_version(
        self, version, keeps_trace, keeps_tenant
    ):
        request = QueryRequest((1,), (2,), trace=True, tenant="analytics")
        payload = encode(request, version=version)
        assert payload["version"] == version
        assert ("trace" in payload) == keeps_trace
        assert ("tenant" in payload) == keeps_tenant

    def test_response_trace_stripped_for_v2_peer(self):
        response = QueryResponse(pairs=((1, 2),), trace={"attrs": {}, "spans": []})
        payload = encode(response, version=2)
        assert "trace" not in payload
        assert decode(payload) == QueryResponse(pairs=((1, 2),), trace=None)
