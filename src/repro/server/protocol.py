"""The served engine's wire protocol: versioned frames over a byte stream.

Every message between :mod:`repro.server.client` and
:mod:`repro.server.core` is one **frame** -- a length-prefixed binary
record safe to parse out of an arbitrary TCP segmentation:

.. code-block:: text

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       4     length      u32 LE: bytes after this field
    4       2     magic       0xAC7E ("Acheron, served")
    6       1     version     protocol revision (PROTOCOL_VERSION)
    7       1     kind        opcode (requests) / response code
    8       4     request_id  u32 LE, client-assigned, echoed verbatim
    12      2     generation  u16 LE pipeline generation (see below)
    14      4     crc32       zlib.crc32 of the payload bytes
    18      ...   payload     kind-specific, tag-encoded (encode_value)

``length`` covers magic..payload (``HEADER_AFTER_LENGTH + payload``), so
a reader needs exactly one 4-byte read to know the frame boundary and the
magic sits *inside* the checked region -- a stream positioned at garbage
fails loudly on the next frame, never silently resynchronizes.

**Generations** make pipelining safe under admission control.  A client
may have many requests in flight on one connection; the server executes
them in arrival order.  When admission control sheds a request it also
sheds every *later* request of the same generation on that connection
(``PIPELINE_ABORT``), so the shed set is always a clean suffix of the
pipeline.  The client bumps its generation and resubmits the suffix in
order -- per-key operation order is preserved exactly, which is what
makes a served replay digest-equivalent to an embedded one even while
shedding.

**Payload encoding** is a small tag-based scheme (:func:`encode_value` /
:func:`decode_value`) covering the engine's data plane: ``None``, bools,
ints of any width, floats, strings, bytes, lists, tuples, and
string-keyed dicts.  It is deliberately *not* pickle: nothing executable
crosses the wire, and a corrupt payload raises :class:`ProtocolError`
instead of importing arbitrary classes.

The :class:`FrameDecoder` is partial-frame safe and total: ``feed`` any
byte soup and ``next_frame`` either returns a complete :class:`Frame`,
returns ``None`` (needs more bytes), or raises a structured
:class:`ProtocolError` -- never anything else, never an infinite loop.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import AcheronError

#: Bump when the frame layout or payload schema changes incompatibly.
PROTOCOL_VERSION = 1

#: First bytes of every frame after the length prefix.
MAGIC = 0xAC7E

#: Frames larger than this are refused by decoders (both sides): a
#: length prefix beyond the cap is treated as garbage, not an allocation
#: request.  Generous for the repo's workloads (a full-store scan of any
#: benchmark store is far below it).
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Bytes of header covered by the length prefix (magic..crc32).
HEADER_AFTER_LENGTH = 14
#: The fixed-size frame prefix: length + covered header.
_PREFIX = struct.Struct("<IHBBIHI")
PREFIX_BYTES = _PREFIX.size  # 18


# ---------------------------------------------------------------------------
# opcodes and response codes
# ---------------------------------------------------------------------------
class Op:
    """Request opcodes (the ``kind`` byte of a request frame)."""

    PING = 0x01
    PUT = 0x02
    GET = 0x03
    DELETE = 0x04
    DELETE_RANGE = 0x05
    SCAN = 0x06
    BATCH = 0x07
    STATS = 0x08

    #: Every request opcode, for validation.
    ALL = frozenset({PING, PUT, GET, DELETE, DELETE_RANGE, SCAN, BATCH, STATS})
    #: Opcodes that mutate the store (admission control treats these as
    #: the shape of load worth shedding under write backpressure).
    WRITES = frozenset({PUT, DELETE, DELETE_RANGE, BATCH})


class Resp:
    """Response codes (the ``kind`` byte of a response frame)."""

    OK = 0x40
    ERR = 0x41

    ALL = frozenset({OK, ERR})


class ErrCode:
    """Structured error codes carried in an ``ERR`` payload dict."""

    #: Malformed request payload / unknown opcode.
    BAD_REQUEST = "BAD_REQUEST"
    #: Admission control shed the request; honor ``retry_after_ms``.
    RETRY_AFTER = "RETRY_AFTER"
    #: Shed because an earlier same-generation request was shed (the
    #: pipeline-abort suffix); resubmit with a bumped generation.
    PIPELINE_ABORT = "PIPELINE_ABORT"
    #: The engine raised while executing (message carries details).
    ENGINE_ERROR = "ENGINE_ERROR"
    #: Server is stopping; reconnect-and-retry against a new instance.
    SHUTTING_DOWN = "SHUTTING_DOWN"


class ProtocolError(AcheronError):
    """A frame or payload violated the wire protocol.

    ``code`` is a short machine-readable reason (``"bad_magic"``,
    ``"bad_version"``, ``"oversized"``, ``"bad_crc"``, ``"bad_kind"``,
    ``"bad_payload"``, ``"truncated"``); the message carries the human
    detail.  Connection-fatal: after raising, a decoder refuses further
    input (a byte stream mid-garbage has no safe resync point).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


# ---------------------------------------------------------------------------
# value codec
# ---------------------------------------------------------------------------
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_I64 = b"i"
_TAG_BIGINT = b"I"
_TAG_F64 = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: Nesting depth cap for decoded containers: deeper input is hostile,
#: not data (the engine's payloads are at most a few levels deep).
_MAX_DEPTH = 32


def encode_value(value: Any, out: bytearray | None = None) -> bytes:
    """Serialize ``value`` with the tag scheme (see module docstring)."""
    buf = bytearray() if out is None else out
    _encode(value, buf)
    return bytes(buf)


def _encode(value: Any, buf: bytearray) -> None:
    if value is None:
        buf += _TAG_NONE
    elif value is True:
        buf += _TAG_TRUE
    elif value is False:
        buf += _TAG_FALSE
    elif type(value) is int:
        if _I64_MIN <= value <= _I64_MAX:
            buf += _TAG_I64
            buf += _I64.pack(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "little", signed=True)
            buf += _TAG_BIGINT
            buf += _U32.pack(len(raw))
            buf += raw
    elif type(value) is float:
        buf += _TAG_F64
        buf += _F64.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        buf += _TAG_STR
        buf += _U32.pack(len(raw))
        buf += raw
    elif type(value) is bytes:
        buf += _TAG_BYTES
        buf += _U32.pack(len(value))
        buf += value
    elif type(value) is list:
        buf += _TAG_LIST
        buf += _U32.pack(len(value))
        for item in value:
            _encode(item, buf)
    elif type(value) is tuple:
        buf += _TAG_TUPLE
        buf += _U32.pack(len(value))
        for item in value:
            _encode(item, buf)
    elif type(value) is dict:
        buf += _TAG_DICT
        buf += _U32.pack(len(value))
        for key, item in value.items():
            if type(key) is not str:
                raise ProtocolError(
                    "bad_payload", f"dict keys must be str, got {type(key).__name__}"
                )
            _encode(key, buf)
            _encode(item, buf)
    else:
        raise ProtocolError(
            "bad_payload", f"unencodable type {type(value).__name__}"
        )


class _Reader:
    """Bounded cursor over one payload's bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise ProtocolError("bad_payload", "payload truncated mid-value")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]


def decode_value(data: bytes) -> Any:
    """Parse one value; raises :class:`ProtocolError` on any malformation
    (wrong tag, truncation, trailing bytes, hostile nesting)."""
    reader = _Reader(data)
    value = _decode(reader, 0)
    if reader.pos != len(data):
        raise ProtocolError(
            "bad_payload", f"{len(data) - reader.pos} trailing bytes after value"
        )
    return value


def _decode(r: _Reader, depth: int) -> Any:
    if depth > _MAX_DEPTH:
        raise ProtocolError("bad_payload", f"nesting deeper than {_MAX_DEPTH}")
    tag = r.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_I64:
        return _I64.unpack(r.take(8))[0]
    if tag == _TAG_BIGINT:
        return int.from_bytes(r.take(r.u32()), "little", signed=True)
    if tag == _TAG_F64:
        return _F64.unpack(r.take(8))[0]
    if tag == _TAG_STR:
        try:
            return r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad_payload", f"invalid utf-8 string: {exc}") from None
    if tag == _TAG_BYTES:
        return r.take(r.u32())
    if tag in (_TAG_LIST, _TAG_TUPLE):
        count = r.u32()
        if count > len(r.data):  # each element costs >= 1 byte
            raise ProtocolError("bad_payload", f"container count {count} exceeds payload")
        items = [_decode(r, depth + 1) for _ in range(count)]
        return items if tag == _TAG_LIST else tuple(items)
    if tag == _TAG_DICT:
        count = r.u32()
        if count > len(r.data):
            raise ProtocolError("bad_payload", f"dict count {count} exceeds payload")
        out = {}
        for _ in range(count):
            key = _decode(r, depth + 1)
            if type(key) is not str:
                raise ProtocolError("bad_payload", "dict key is not a string")
            out[key] = _decode(r, depth + 1)
        return out
    raise ProtocolError("bad_payload", f"unknown value tag {tag!r}")


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Frame:
    """One decoded wire frame (payload already parsed to a value)."""

    kind: int
    request_id: int
    generation: int
    payload: Any

    @property
    def is_response(self) -> bool:
        return self.kind in Resp.ALL


def encode_frame(
    kind: int, request_id: int, payload: Any, generation: int = 0
) -> bytes:
    """One complete frame as bytes (header + tag-encoded payload)."""
    body = encode_value(payload)
    if HEADER_AFTER_LENGTH + len(body) > MAX_FRAME_BYTES:
        raise ProtocolError("oversized", f"payload of {len(body)} bytes exceeds cap")
    return _PREFIX.pack(
        HEADER_AFTER_LENGTH + len(body),
        MAGIC,
        PROTOCOL_VERSION,
        kind,
        request_id & 0xFFFFFFFF,
        generation & 0xFFFF,
        zlib.crc32(body),
    ) + body


def error_payload(
    code: str, message: str, retry_after_ms: float | None = None
) -> dict:
    """The canonical ``ERR`` payload dict."""
    payload = {"code": code, "message": message}
    if retry_after_ms is not None:
        payload["retry_after_ms"] = float(retry_after_ms)
    return payload


class FrameDecoder:
    """Incremental, partial-frame-safe frame parser for one stream.

    Usage::

        decoder.feed(sock.recv(65536))
        while (frame := decoder.next_frame()) is not None:
            handle(frame)

    Totality contract (hypothesis-tested): for *any* byte sequence fed in
    *any* segmentation, ``next_frame`` either returns a :class:`Frame`,
    returns ``None`` (a partial frame is buffered), or raises
    :class:`ProtocolError`.  After an error the decoder is poisoned and
    every later call re-raises -- a stream that desynchronized has no
    trustworthy resync point, so the connection must be torn down.
    """

    __slots__ = ("_buf", "_error", "_max_frame")

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buf = bytearray()
        self._error: ProtocolError | None = None
        self._max_frame = max_frame_bytes

    @property
    def buffered(self) -> int:
        """Bytes held waiting for a complete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        if self._error is not None:
            raise self._error
        self._buf += data

    def _fail(self, code: str, message: str) -> ProtocolError:
        self._error = ProtocolError(code, message)
        self._buf.clear()
        raise self._error

    def next_frame(self) -> Frame | None:
        if self._error is not None:
            raise self._error
        if len(self._buf) < 4:
            return None
        (length,) = _U32.unpack_from(self._buf, 0)
        if length < HEADER_AFTER_LENGTH:
            self._fail("truncated", f"frame length {length} below header size")
        if 4 + length > self._max_frame:
            self._fail("oversized", f"frame of {length} bytes exceeds cap")
        if len(self._buf) < 4 + length:
            return None
        _, magic, version, kind, request_id, generation, crc = _PREFIX.unpack_from(
            self._buf, 0
        )
        body = bytes(self._buf[PREFIX_BYTES : 4 + length])
        if magic != MAGIC:
            self._fail("bad_magic", f"expected {MAGIC:#x}, got {magic:#x}")
        if version != PROTOCOL_VERSION:
            self._fail("bad_version", f"peer speaks v{version}, this is v{PROTOCOL_VERSION}")
        if kind not in Op.ALL and kind not in Resp.ALL:
            self._fail("bad_kind", f"unknown frame kind {kind:#x}")
        if zlib.crc32(body) != crc:
            self._fail("bad_crc", "payload checksum mismatch")
        try:
            payload = decode_value(body)
        except ProtocolError as exc:
            self._error = exc
            self._buf.clear()
            raise
        del self._buf[: 4 + length]
        return Frame(kind=kind, request_id=request_id, generation=generation, payload=payload)

    def drain(self) -> Iterator[Frame]:
        """Every complete frame currently buffered."""
        while (frame := self.next_frame()) is not None:
            yield frame
