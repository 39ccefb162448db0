"""Round-trip and validation tests for the service wire protocol."""

import json
import struct

import pytest

from repro.api import ReachQuery
from repro.service.protocol import (
    OversizedFrameError,
    pack_frame,
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
    encode,
    wire_version,
)
from tests.service.wire import frame_around as _frame

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


def _through_a_frame(message):
    return unpack_frame(pack_frame(message))[0]


class TestRoundTrip:
    @pytest.mark.parametrize("message", ALL_MESSAGES, ids=lambda m: type(m).__name__)
    def test_dict_round_trip(self, message):
        assert decode(encode(message)) == message


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
            unpack_frame(_frame(b"{not json"))

    def test_unhashable_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown message kind"):
            decode({"kind": ["query"]})

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

    @pytest.mark.parametrize(
        "foreign", [1, 2, 3, 4, PROTOCOL_VERSION + 1, "5", None, True, 6.0]
    )
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
        frame = pack_frame(QueryRequest((1,), (2,)))
        assert frame[4] == PROTOCOL_VERSION
        assert json.loads(frame[5:])["version"] == PROTOCOL_VERSION

    def test_two_versions_are_live(self):
        assert (MIN_PROTOCOL_VERSION, PROTOCOL_VERSION) == (5, 6)


class TestVersionNegotiation:
    """Version-6 additions degrade cleanly when talking to version-5 peers."""

    def test_encode_for_v5_strips_the_deadline(self):
        request = QueryRequest((1,), (2,), trace=True, tenant="crm", deadline_ms=50.0)
        # The stripped frame still decodes — the deadline falls back to its
        # default, everything a v5 peer does know is kept.
        assert decode(encode(request, version=5)) == QueryRequest(
            (1,), (2,), trace=True, tenant="crm"
        )

    def test_trace_round_trips_at_current_version(self):
        trace = {"attrs": {"representation": "bits"}, "spans": []}
        request = QueryRequest((1,), (2,), trace=True)
        response = QueryResponse(pairs=(), trace=trace)
        assert _through_a_frame(request).trace is True
        assert _through_a_frame(response).trace == trace

    def test_v5_frame_from_old_client_decodes(self):
        # An old client has no idea deadline_ms exists: its frames omit the
        # field and claim version 5.  The server must accept them unchanged.
        payload = encode(QueryRequest((3,), (4,), direction="forward"))
        payload.pop("deadline_ms")
        payload["version"] = 5
        decoded = decode(payload)
        assert decoded == QueryRequest((3,), (4,), direction="forward")
        assert decoded.deadline_ms is None

    def test_encode_rejects_unsupported_target_version(self):
        for version in (1, MIN_PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1):
            with pytest.raises(ProtocolError, match="version"):
                encode(StatsRequest(), version=version)

    def test_unpack_reports_the_frame_header_version(self):
        message, version, _id, _consumed = unpack_frame(
            pack_frame(StatsRequest(), version=MIN_PROTOCOL_VERSION)
        )
        assert message == StatsRequest()
        assert version == MIN_PROTOCOL_VERSION
        assert wire_version(encode(StatsRequest())) == PROTOCOL_VERSION


class TestVersionFourTenants:
    """The tenant label (added in version 4) travels at every live version."""

    def test_tenant_round_trips_at_current_version(self):
        request = QueryRequest((1,), (2,), tenant="analytics")
        decoded = _through_a_frame(request)
        assert decoded.tenant == "analytics"
        assert decoded == request

    def test_old_client_frame_without_tenant_decodes(self):
        payload = encode(QueryRequest((3,), (4,)))
        payload.pop("tenant")
        payload["version"] = MIN_PROTOCOL_VERSION
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

        payload = encode(QueryRequest((1,), (2,)), version=5)
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


#: One message per kind, and the exact bytes ``pack_frame`` produced for it
#: at the commit before versions 2-4 were retired (ids 7..17).
GOLDEN_MESSAGES = [
    QueryRequest((1, 2, 3), (9, 8), direction="forward", use_cache=False,
                 trace=True, tenant="crm", deadline_ms=75.0),
    UpdateRequest("insert-edge", 4, 7),
    StatsRequest(),
    SnapshotRequest(),
    MetricsRequest(),
    QueryResponse(pairs=((1, 9), (2, 8)), cached=True, direction="backward",
                  num_batches=0, latency_seconds=0.25, messages_sent=3,
                  bytes_sent=512, epoch=4,
                  trace={"attrs": {"epoch": 4}, "spans": []}),
    UpdateResponse(op="delete-edge", structural_change=True,
                   affected_partitions=(2, 0), latency_seconds=0.01),
    StatsResponse(stats={"queries": 5, "cache_hit_rate": 0.6}),
    SnapshotResponse(snapshot={"messages_sent": 2, "rounds": 1}),
    MetricsResponse(text="# TYPE dsr_queries_total counter\ndsr_queries_total 3\n"),
    ErrorResponse(error="ValueError", message="unknown vertex 42"),
]
GOLDEN_FRAMES = {
    (0, 5): b'\x00\x00\x00\x8a\x05{"sources":[1,2,3],"targets":[9,8],"direction":"forward","use_cache":false,"trace":true,"tenant":"crm","kind":"query","version":5,"id":7}',
    (0, 6): b'\x00\x00\x00\x9d\x06{"sources":[1,2,3],"targets":[9,8],"direction":"forward","use_cache":false,"trace":true,"tenant":"crm","deadline_ms":75.0,"kind":"query","version":6,"id":7}',
    (1, 5): b'\x00\x00\x00X\x05{"op":"insert-edge","u":4,"v":7,"partition_id":null,"kind":"update","version":5,"id":8}',
    (1, 6): b'\x00\x00\x00X\x06{"op":"insert-edge","u":4,"v":7,"partition_id":null,"kind":"update","version":6,"id":8}',
    (2, 5): b'\x00\x00\x00$\x05{"kind":"stats","version":5,"id":9}',
    (2, 6): b'\x00\x00\x00$\x06{"kind":"stats","version":6,"id":9}',
    (3, 5): b'\x00\x00\x00(\x05{"kind":"snapshot","version":5,"id":10}',
    (3, 6): b'\x00\x00\x00(\x06{"kind":"snapshot","version":6,"id":10}',
    (4, 5): b'\x00\x00\x00\'\x05{"kind":"metrics","version":5,"id":11}',
    (4, 6): b'\x00\x00\x00\'\x06{"kind":"metrics","version":6,"id":11}',
    (5, 5): b'\x00\x00\x00\xe4\x05{"pairs":[[1,9],[2,8]],"cached":true,"direction":"backward","num_batches":0,"latency_seconds":0.25,"messages_sent":3,"bytes_sent":512,"epoch":4,"trace":{"attrs":{"epoch":4},"spans":[]},"kind":"query-result","version":5,"id":12}',
    (5, 6): b'\x00\x00\x00\xe4\x06{"pairs":[[1,9],[2,8]],"cached":true,"direction":"backward","num_batches":0,"latency_seconds":0.25,"messages_sent":3,"bytes_sent":512,"epoch":4,"trace":{"attrs":{"epoch":4},"spans":[]},"kind":"query-result","version":6,"id":12}',
    (6, 5): b'\x00\x00\x00\x9a\x05{"op":"delete-edge","structural_change":true,"affected_partitions":[0,2],"vertex":null,"latency_seconds":0.01,"kind":"update-result","version":5,"id":13}',
    (6, 6): b'\x00\x00\x00\x9a\x06{"op":"delete-edge","structural_change":true,"affected_partitions":[0,2],"vertex":null,"latency_seconds":0.01,"kind":"update-result","version":6,"id":13}',
    (7, 5): b'\x00\x00\x00W\x05{"stats":{"queries":5,"cache_hit_rate":0.6},"kind":"stats-result","version":5,"id":14}',
    (7, 6): b'\x00\x00\x00W\x06{"stats":{"queries":5,"cache_hit_rate":0.6},"kind":"stats-result","version":6,"id":14}',
    (8, 5): b'\x00\x00\x00Y\x05{"snapshot":{"messages_sent":2,"rounds":1},"kind":"snapshot-result","version":5,"id":15}',
    (8, 6): b'\x00\x00\x00Y\x06{"snapshot":{"messages_sent":2,"rounds":1},"kind":"snapshot-result","version":6,"id":15}',
    (9, 5): b'\x00\x00\x00o\x05{"text":"# TYPE dsr_queries_total counter\\ndsr_queries_total 3\\n","kind":"metrics-result","version":5,"id":16}',
    (9, 6): b'\x00\x00\x00o\x06{"text":"# TYPE dsr_queries_total counter\\ndsr_queries_total 3\\n","kind":"metrics-result","version":6,"id":16}',
    (10, 5): b'\x00\x00\x00X\x05{"error":"ValueError","message":"unknown vertex 42","kind":"error","version":5,"id":17}',
    (10, 6): b'\x00\x00\x00X\x06{"error":"ValueError","message":"unknown vertex 42","kind":"error","version":6,"id":17}',
}


class TestBinaryFraming:
    """Length-prefixed binary frames: the one framing on the wire."""

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

    @pytest.mark.parametrize("index,version", sorted(GOLDEN_FRAMES))
    def test_live_versions_are_byte_identical_to_the_recorded_frames(
        self, index, version
    ):
        message = GOLDEN_MESSAGES[index]
        frame = pack_frame(message, version=version, request_id=index + 7)
        assert frame == GOLDEN_FRAMES[index, version]
        decoded, wire, request_id, consumed = unpack_frame(frame)
        assert (wire, request_id, consumed) == (version, index + 7, len(frame))
        if version == PROTOCOL_VERSION:
            assert decoded == message

    def test_golden_frames_cover_every_message_kind(self):
        from repro.service.protocol import _MESSAGE_TYPES

        assert {type(m) for m in GOLDEN_MESSAGES} == set(_MESSAGE_TYPES.values())

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
        huge = struct.pack(">IB", 64 * 1024 * 1024, PROTOCOL_VERSION)
        with pytest.raises(OversizedFrameError, match="exceeds"):
            unpack_frame(huge, max_frame_bytes=1024)

    def test_pack_frame_refuses_pre_framing_versions(self):
        for version in range(1, MIN_PROTOCOL_VERSION):
            with pytest.raises(ProtocolError, match="version"):
                pack_frame(StatsRequest(), version=version)

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
        for version in (0, 2, 3, 4, PROTOCOL_VERSION + 1, 255):
            with pytest.raises(ProtocolError, match="version"):
                unpack_frame(_frame(b'{"kind": "stats"}', version))

    def test_frame_with_garbage_body_rejected(self):
        with pytest.raises(ProtocolError):
            unpack_frame(_frame(b"\x00\x01 not json"))

    def test_newline_json_line_is_not_a_frame(self):
        # A pre-framing peer's first bytes, read as a length, are ~2 GB:
        # rejected from the header, before anything is buffered.
        line = b'{"kind":"stats","version":4}\n'
        with pytest.raises(OversizedFrameError, match="exceeds"):
            unpack_frame(line)


class TestHeaderVersionIsAuthoritative:
    def test_body_without_version_inherits_the_header(self):
        message, version, _id, _consumed = unpack_frame(
            _frame(b'{"kind":"stats"}', MIN_PROTOCOL_VERSION)
        )
        assert (message, version) == (StatsRequest(), MIN_PROTOCOL_VERSION)

    @pytest.mark.parametrize("body_version", [2, 5, 7, "6", None, 6.5])
    def test_body_version_that_disagrees_is_rejected(self, body_version):
        body = json.dumps({"kind": "stats", "version": body_version}).encode()
        with pytest.raises(ProtocolError, match="version"):
            unpack_frame(_frame(body, PROTOCOL_VERSION))



class TestVersionFiveNegotiation:
    """v5 frames carry every field but the v6 deadline."""

    def test_v5_frame_keeps_trace_and_tenant(self):
        request = QueryRequest(
            (1,), (2,), trace=True, tenant="analytics", deadline_ms=20.0
        )
        message, version, _id, _consumed = unpack_frame(
            pack_frame(request, version=5)
        )
        assert version == 5
        assert message.trace is True
        assert message.tenant == "analytics"
        assert message.deadline_ms is None

    @pytest.mark.parametrize("version,keeps_deadline", [(5, False), (6, True)])
    def test_json_encode_strips_gated_fields_per_version(
        self, version, keeps_deadline
    ):
        request = QueryRequest(
            (1,), (2,), trace=True, tenant="analytics", deadline_ms=20.0
        )
        payload = encode(request, version=version)
        assert payload["version"] == version
        assert "trace" in payload and "tenant" in payload
        assert ("deadline_ms" in payload) == keeps_deadline


class TestRequestIds:
    @pytest.mark.parametrize("bad_id", [[1, 2], {"a": 1}, "7", 1.5, True])
    def test_non_integer_id_rejected(self, bad_id):
        body = json.dumps({"kind": "stats", "id": bad_id}).encode()
        with pytest.raises(ProtocolError, match="request id"):
            unpack_frame(_frame(body))

    def test_null_id_means_untagged(self):
        _message, _version, request_id, _consumed = unpack_frame(
            _frame(b'{"kind":"stats","id":null}')
        )
        assert request_id is None
