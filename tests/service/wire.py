"""Raw-socket helpers for tests that talk to the front door by hand."""

import json
import socket
import struct

from repro.service.protocol import PROTOCOL_VERSION, unpack_frame


def frame_around(body: bytes, version=PROTOCOL_VERSION) -> bytes:
    """A hand-built frame around raw body bytes (what a foreign peer sends)."""
    return struct.pack(">IB", 1 + len(body), version) + body


def raw_frame(payload, version=PROTOCOL_VERSION):
    """:func:`frame_around` a JSON-able payload."""
    return frame_around(json.dumps(payload).encode("utf-8"), version)


def read_frames(raw, expect=None, buffer=None):
    """Read reply frames until ``expect`` arrived or the peer closed.

    Returns ``(frames, closed)``; each frame is ``(message, version, id)``.
    Bytes past the last wanted frame stay in ``buffer`` for the next call.
    A socket timeout propagates — a server that neither answers nor closes
    is exactly the hang these tests exist to catch.
    """
    buffer = bytearray() if buffer is None else buffer
    frames = []
    while expect is None or len(frames) < expect:
        framed = unpack_frame(buffer)
        if framed is not None:
            frames.append(framed[:3])
            del buffer[: framed[3]]
            continue
        try:
            chunk = raw.recv(65536)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            return frames, True
        buffer.extend(chunk)
    return frames, False


def exchange(address, data, expect=None, timeout=10.0):
    """Open a connection, send ``data``, return :func:`read_frames`' result."""
    with socket.create_connection(address, timeout=timeout) as raw:
        raw.sendall(data)
        return read_frames(raw, expect)
