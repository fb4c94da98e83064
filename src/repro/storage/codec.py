"""Binary serialization for entries and pages.

Used by the durable backends (:mod:`repro.storage.filestore`,
:mod:`repro.storage.wal`).  The format is deliberately simple and fully
self-describing:

* scalars are tagged (None / int64 / big-int / bytes / str) so the engine
  stays value-agnostic;
* an entry is ``kind(1) seqno(8) write_time(8) delete_key-obj key-obj
  value-obj``;
* a page is ``magic(4) count(4) crc32(4) payload`` where the CRC covers the
  payload -- decode raises :class:`~repro.errors.CorruptionError` on any
  mismatch, never returns garbage.

All integers are little-endian.  The format is versioned through the magic
number; bumping the layout means a new magic.

Entries are immutable, so each is serialised **once in its life**:
:func:`entry_blob` memoises the encoded bytes on the entry (normally at the
WAL append every durable write performs) and every later writer -- flush,
compaction output, KiWi replacement files, WAL rewrites -- moves those bytes
instead of re-encoding field by field.  The first encode has a fast path for
the shape every workload uses (int64 ``delete_key`` and ``key``): one
``struct`` pack for everything up to the value; any other shape takes the
general tagged-object route.  Both produce the same bytes -- the format and
``PAGE_MAGIC`` are unchanged.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from repro.errors import CorruptionError
from repro.lsm.entry import Entry, EntryKind

PAGE_MAGIC = 0x41434831  # "ACH1"

_TAG_NONE = 0
_TAG_INT64 = 1
_TAG_BIGINT = 2
_TAG_BYTES = 3
_TAG_STR = 4

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

_u8 = struct.Struct("<B")
_i64 = struct.Struct("<q")
_u32 = struct.Struct("<I")
_tagged_i64 = struct.Struct("<Bq")  # tag, int64
_tagged_len = struct.Struct("<BI")  # tag, payload length
_entry_head = struct.Struct("<Bqq")  # kind, seqno, write_time
#: The entry head with an int64 ``delete_key`` and ``key`` behind it:
#: kind, seqno, write_time, tag, delete_key, tag, key.
_int_keyed_head = struct.Struct("<BqqBqBq")
_page_header = struct.Struct("<III")  # magic, count, crc32

_NONE_OBJ = _u8.pack(_TAG_NONE)


def _obj_bytes(obj: Any) -> bytes:
    """The tagged encoding of ``obj`` (None/int/bytes/str)."""
    if obj is None:
        return _NONE_OBJ
    if isinstance(obj, bool):
        raise TypeError("bool keys/values are not supported; use int")
    if isinstance(obj, int):
        if _I64_MIN <= obj <= _I64_MAX:
            return _tagged_i64.pack(_TAG_INT64, obj)
        payload = obj.to_bytes((obj.bit_length() + 8) // 8, "little", signed=True)
        return _tagged_len.pack(_TAG_BIGINT, len(payload)) + payload
    if isinstance(obj, bytes):
        return _tagged_len.pack(_TAG_BYTES, len(obj)) + obj
    if isinstance(obj, str):
        payload = obj.encode("utf-8")
        return _tagged_len.pack(_TAG_STR, len(payload)) + payload
    raise TypeError(
        f"cannot serialize {type(obj).__name__}; durable engines support "
        "None, int, bytes, and str keys/values"
    )


def pack_obj(obj: Any, out: bytearray) -> None:
    """Append the tagged encoding of ``obj`` (None/int/bytes/str) to ``out``."""
    out += _obj_bytes(obj)


def unpack_obj(buf: bytes, offset: int) -> tuple[Any, int]:
    """Decode one tagged object at ``offset``; returns (obj, next offset)."""
    try:
        (tag,) = _u8.unpack_from(buf, offset)
        offset += 1
        if tag == _TAG_NONE:
            return None, offset
        if tag == _TAG_INT64:
            (value,) = _i64.unpack_from(buf, offset)
            return value, offset + 8
        if tag == _TAG_BIGINT:
            (length,) = _u32.unpack_from(buf, offset)
            offset += 4
            payload = buf[offset : offset + length]
            if len(payload) != length:
                raise CorruptionError("truncated big-int payload")
            return int.from_bytes(payload, "little", signed=True), offset + length
        if tag == _TAG_BYTES or tag == _TAG_STR:
            (length,) = _u32.unpack_from(buf, offset)
            offset += 4
            payload = buf[offset : offset + length]
            if len(payload) != length:
                raise CorruptionError("truncated bytes/str payload")
            if tag == _TAG_STR:
                return payload.decode("utf-8"), offset + length
            return bytes(payload), offset + length
    except struct.error as exc:
        raise CorruptionError(f"truncated object at offset {offset}") from exc
    raise CorruptionError(f"unknown object tag {tag} at offset {offset}")


def _head_bytes(entry: Entry) -> bytes:
    """Everything before the value: kind, seqno, write_time, delete_key, key."""
    delete_key = entry.delete_key
    key = entry.key
    # ``type() is int`` keeps bools (rejected) and int subclasses on the
    # general route; an int beyond int64 fails the pack and follows them.
    if type(delete_key) is int and type(key) is int:
        try:
            return _int_keyed_head.pack(
                entry.kind, entry.seqno, entry.write_time,
                _TAG_INT64, delete_key, _TAG_INT64, key,
            )
        except struct.error:
            pass
    return (
        _entry_head.pack(entry.kind, entry.seqno, entry.write_time)
        + _obj_bytes(delete_key)
        + _obj_bytes(key)
    )


def entry_blob(entry: Entry) -> bytes:
    """The binary form of ``entry``, encoded on first use and kept on it.

    Entries are immutable, so the bytes are a pure function of the entry
    for its whole life; racing first encodes store equal values.
    """
    try:
        return entry.blob
    except AttributeError:
        blob = entry.blob = _head_bytes(entry) + _obj_bytes(entry.value)
        return blob


def encode_entry(entry: Entry, out: bytearray) -> None:
    """Append the binary form of ``entry`` to ``out``."""
    out += entry_blob(entry)


def decode_entry(buf: bytes, offset: int) -> tuple[Entry, int]:
    """Decode one entry at ``offset``; returns (entry, next offset)."""
    try:
        (kind_raw,) = _u8.unpack_from(buf, offset)
        offset += 1
        (seqno,) = _i64.unpack_from(buf, offset)
        offset += 8
        (write_time,) = _i64.unpack_from(buf, offset)
        offset += 8
    except struct.error as exc:
        raise CorruptionError(f"truncated entry header at offset {offset}") from exc
    try:
        kind = EntryKind(kind_raw)
    except ValueError as exc:
        raise CorruptionError(f"invalid entry kind {kind_raw}") from exc
    delete_key, offset = unpack_obj(buf, offset)
    key, offset = unpack_obj(buf, offset)
    value, offset = unpack_obj(buf, offset)
    return Entry(key, seqno, kind, value, delete_key, write_time), offset


def encode_page(entries: list[Entry]) -> bytes:
    """Serialize a page of entries with a CRC-protected header."""
    try:
        # Common case: every entry was encoded at its WAL append.
        blobs = [entry.blob for entry in entries]
    except AttributeError:
        blobs = [entry_blob(entry) for entry in entries]
    payload = b"".join(blobs)
    return _page_header.pack(PAGE_MAGIC, len(entries), zlib.crc32(payload)) + payload


def decode_page(data: bytes) -> list[Entry]:
    """Deserialize a page; raises CorruptionError on any damage."""
    if len(data) < _page_header.size:
        raise CorruptionError(f"page shorter than its header ({len(data)} bytes)")
    magic, count, crc = _page_header.unpack_from(data, 0)
    if magic != PAGE_MAGIC:
        raise CorruptionError(f"bad page magic {magic:#x}")
    payload = data[_page_header.size :]
    if zlib.crc32(payload) != crc:
        raise CorruptionError("page checksum mismatch")
    entries: list[Entry] = []
    offset = 0
    for _ in range(count):
        entry, offset = decode_entry(payload, offset)
        entries.append(entry)
    if offset != len(payload):
        raise CorruptionError(f"{len(payload) - offset} trailing bytes after page payload")
    return entries
