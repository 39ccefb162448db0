"""Fuzzing the wire decoder: hostile bytes in, typed outcomes out.

Whatever arrives on a socket, :func:`unpack_frame` may only say "read more"
(``None``, and only about a frame under the cap), return a well-typed
4-tuple, or raise :class:`ProtocolError` / :class:`OversizedFrameError` —
never another exception, which would escape the front door's
``data_received`` untyped.  Skipped wholesale when hypothesis is missing.
"""

import json
import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.service.protocol import (  # noqa: E402
    _MESSAGE_TYPES,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode,
    pack_frame,
    unpack_frame,
)
from tests.service.test_protocol import ALL_MESSAGES  # noqa: E402
from tests.service.wire import frame_around as _frame  # noqa: E402

MESSAGE_CLASSES = set(_MESSAGE_TYPES.values())


_FUZZ_CAP = 4096
_VALID_FRAMES = [pack_frame(m, request_id=i) for i, m in enumerate(ALL_MESSAGES)]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_hostile_dicts = st.dictionaries(
    st.sampled_from(
        ["kind", "version", "id", "sources", "targets", "direction", "op",
         "pairs", "deadline_ms", "tenant", "trace", "error", "message"]
    ),
    _json_values | st.sampled_from(["query", "update", "stats", "error", 5, 6]),
    max_size=8,
)


@st.composite
def _mangled_frames(draw):
    """A valid frame, truncated and/or with flipped bits."""
    frame = bytearray(draw(st.sampled_from(_VALID_FRAMES)))
    for position in draw(st.lists(st.integers(0, len(frame) * 8 - 1), max_size=4)):
        frame[position // 8] ^= 1 << (position % 8)
    return bytes(frame[: draw(st.integers(0, len(frame)))])


def _assert_typed_outcome(buffer: bytes, cap: int = _FUZZ_CAP):
    try:
        framed = unpack_frame(buffer, max_frame_bytes=cap)
    except ProtocolError:  # includes OversizedFrameError
        return
    if framed is None:
        # "Read more and retry" is only ever said about a frame under the
        # cap: nothing makes a receiver buffer past cap + header.
        if len(buffer) >= 5:
            assert struct.unpack_from(">I", buffer)[0] <= cap
        return
    message, version, request_id, consumed = framed
    assert type(message) in MESSAGE_CLASSES
    assert version in (5, 6)
    assert request_id is None or (
        isinstance(request_id, int) and not isinstance(request_id, bool)
    )
    assert 5 < consumed <= len(buffer)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=256))
    @example(b'{"kind":"stats","version":4}\n')
    @example(struct.pack(">IB", 0, 6))
    @example(struct.pack(">IB", 0xFFFFFFFF, 6))
    @example(struct.pack(">IB", _FUZZ_CAP + 1, 6))
    @example(_frame(b"[" * 3000))
    @example(_frame(b'{"kind":"stats","id":' + b"9" * 5000 + b"}"))
    def test_random_bytes(self, buffer):
        _assert_typed_outcome(buffer)

    @settings(max_examples=300, deadline=None)
    @given(_mangled_frames())
    def test_truncated_and_bit_flipped_frames(self, buffer):
        _assert_typed_outcome(buffer)

    @settings(max_examples=300, deadline=None)
    @given(_hostile_dicts | _json_values, st.integers(0, 255))
    def test_well_framed_hostile_bodies(self, payload, version):
        _assert_typed_outcome(_frame(json.dumps(payload).encode(), version))

    @settings(max_examples=300, deadline=None)
    @given(_hostile_dicts | _json_values)
    def test_decode_raises_only_protocol_errors(self, payload):
        try:
            message = decode(payload)
        except ProtocolError:
            return
        assert type(message) in MESSAGE_CLASSES

    def test_default_cap_is_what_keeps_a_text_line_out(self):
        assert struct.unpack(">I", b'{"ki')[0] > MAX_FRAME_BYTES
