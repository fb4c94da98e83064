"""Unit and property tests for the binary codec."""

import hashlib
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.entry import Entry, EntryKind
from repro.storage.codec import (
    PAGE_MAGIC,
    decode_entry,
    decode_page,
    encode_entry,
    encode_page,
    entry_blob,
    pack_obj,
    unpack_obj,
)
from repro.storage.filestore import FileStore
from repro.storage.wal import WriteAheadLog

scalar = st.one_of(
    st.none(),
    st.integers(-(2**100), 2**100),
    st.binary(max_size=64),
    st.text(max_size=64),
)


def roundtrip_obj(obj):
    buf = bytearray()
    pack_obj(obj, buf)
    decoded, offset = unpack_obj(bytes(buf), 0)
    assert offset == len(buf)
    return decoded


class TestObjects:
    @pytest.mark.parametrize(
        "obj",
        [None, 0, 1, -1, 2**62, -(2**62), 2**90, -(2**90), b"", b"bytes", "", "text", "unié"],
    )
    def test_roundtrip(self, obj):
        assert roundtrip_obj(obj) == obj

    def test_bytes_and_str_stay_distinct(self):
        assert isinstance(roundtrip_obj(b"x"), bytes)
        assert isinstance(roundtrip_obj("x"), str)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            roundtrip_obj(True)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            roundtrip_obj(3.14)

    def test_truncated_object_raises_corruption(self):
        buf = bytearray()
        pack_obj(b"hello world", buf)
        with pytest.raises(CorruptionError):
            unpack_obj(bytes(buf[:-3]), 0)

    def test_unknown_tag_raises_corruption(self):
        with pytest.raises(CorruptionError):
            unpack_obj(b"\xff", 0)

    @given(scalar)
    @settings(max_examples=80)
    def test_property_roundtrip(self, obj):
        assert roundtrip_obj(obj) == obj


entries = st.builds(
    Entry,
    key=st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=16), st.binary(max_size=16)),
    seqno=st.integers(0, 2**40),
    kind=st.sampled_from([EntryKind.PUT, EntryKind.TOMBSTONE]),
    value=scalar,
    delete_key=st.integers(0, 2**40),
    write_time=st.integers(0, 2**40),
)


class TestEntries:
    def test_roundtrip_put(self):
        entry = Entry.put("user:1", b"profile", seqno=7, write_time=20, delete_key=3)
        buf = bytearray()
        encode_entry(entry, buf)
        decoded, consumed = decode_entry(bytes(buf), 0)
        assert decoded == entry
        assert consumed == len(buf)

    def test_roundtrip_tombstone(self):
        entry = Entry.tombstone(99, seqno=8, write_time=21)
        buf = bytearray()
        encode_entry(entry, buf)
        decoded, _ = decode_entry(bytes(buf), 0)
        assert decoded == entry
        assert decoded.is_tombstone

    def test_invalid_kind_raises_corruption(self):
        buf = bytearray()
        encode_entry(Entry.put(1, "v", 1), buf)
        buf[0] = 200  # clobber the kind byte
        with pytest.raises(CorruptionError):
            decode_entry(bytes(buf), 0)

    def test_truncated_header_raises_corruption(self):
        with pytest.raises(CorruptionError):
            decode_entry(b"\x00\x01", 0)

    @given(entries)
    @settings(max_examples=80)
    def test_property_roundtrip(self, entry):
        buf = bytearray()
        encode_entry(entry, buf)
        decoded, consumed = decode_entry(bytes(buf), 0)
        assert decoded == entry
        assert consumed == len(buf)


class TestPages:
    def _page(self):
        return [Entry.put(k, f"v{k}", seqno=k + 1, write_time=k) for k in range(20)]

    def test_roundtrip(self):
        page = self._page()
        assert decode_page(encode_page(page)) == page

    def test_empty_page(self):
        assert decode_page(encode_page([])) == []

    def test_bad_magic(self):
        blob = bytearray(encode_page(self._page()))
        blob[0] ^= 0xFF
        with pytest.raises(CorruptionError):
            decode_page(bytes(blob))

    def test_payload_bitflip_detected(self):
        blob = bytearray(encode_page(self._page()))
        blob[-1] ^= 0x01
        with pytest.raises(CorruptionError):
            decode_page(bytes(blob))

    def test_truncated_page(self):
        blob = encode_page(self._page())
        with pytest.raises(CorruptionError):
            decode_page(blob[:8])

    def test_trailing_garbage_detected(self):
        # Extra bytes change the CRC; decode must not silently ignore them.
        blob = encode_page(self._page()) + b"junk"
        with pytest.raises(CorruptionError):
            decode_page(blob)

    @given(st.lists(entries, max_size=30))
    @settings(max_examples=40)
    def test_property_roundtrip(self, page):
        assert decode_page(encode_page(page)) == page


# ---------------------------------------------------------------------------
# serialise once: entry_blob vs the field-by-field reference
# ---------------------------------------------------------------------------
def reference_encode_entry(entry: Entry) -> bytes:
    """The original field-by-field encoder, kept as the reference."""

    def obj(o) -> bytes:
        if o is None:
            return b"\x00"
        if isinstance(o, bool):
            raise TypeError("bool keys/values are not supported; use int")
        if isinstance(o, int):
            if -(2**63) <= o <= 2**63 - 1:
                return b"\x01" + struct.pack("<q", o)
            payload = o.to_bytes((o.bit_length() + 8) // 8, "little", signed=True)
            return b"\x02" + struct.pack("<I", len(payload)) + payload
        if isinstance(o, bytes):
            return b"\x03" + struct.pack("<I", len(o)) + o
        if isinstance(o, str):
            payload = o.encode("utf-8")
            return b"\x04" + struct.pack("<I", len(payload)) + payload
        raise TypeError(type(o).__name__)

    return (
        struct.pack("<B", int(entry.kind))
        + struct.pack("<q", entry.seqno)
        + struct.pack("<q", entry.write_time)
        + obj(entry.delete_key)
        + obj(entry.key)
        + obj(entry.value)
    )


_I64_EDGES = [-(2**63) - 1, -(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1, 2**63]
wide_int = st.one_of(st.sampled_from(_I64_EDGES), st.integers(-(2**100), 2**100))
wide_scalar = st.one_of(st.none(), wide_int, st.binary(max_size=64), st.text(max_size=64))
data_entries = st.builds(
    Entry,
    key=st.one_of(wide_int, st.text(max_size=16), st.binary(max_size=16)),
    seqno=st.integers(0, 2**63 - 1),
    kind=st.sampled_from([EntryKind.PUT, EntryKind.TOMBSTONE]),
    value=wide_scalar,
    delete_key=wide_int,
    write_time=st.integers(0, 2**63 - 1),
)
fence_entries = st.builds(
    Entry.range_fence,
    lo=wide_int,
    hi=wide_int,
    seqno=st.integers(0, 2**63 - 1),
    write_time=st.integers(0, 2**63 - 1),
)


class TestEntryBlob:
    @given(st.one_of(data_entries, fence_entries))
    @settings(max_examples=300)
    def test_property_blob_equals_reference_encoding(self, entry):
        expected = reference_encode_entry(entry)
        assert entry_blob(entry) == expected
        assert entry.blob == expected  # memoised on the entry ...
        assert entry_blob(entry) is entry.blob  # ... and served from there
        buf = bytearray(b"prefix")
        encode_entry(entry, buf)
        assert bytes(buf) == b"prefix" + expected
        decoded, consumed = decode_entry(expected, 0)
        assert decoded == entry and consumed == len(expected)

    @given(st.lists(st.one_of(data_entries, fence_entries), max_size=12))
    @settings(max_examples=60)
    def test_property_page_is_header_plus_reference_blobs(self, page):
        payload = b"".join(reference_encode_entry(e) for e in page)
        header = struct.pack("<III", PAGE_MAGIC, len(page), zlib.crc32(payload))
        assert encode_page(page) == header + payload
        # Second encode moves the memoised bytes: same result.
        assert encode_page(page) == header + payload

    def test_page_mixing_encoded_and_fresh_entries(self):
        page = [Entry.put(k, f"v{k}", seqno=k + 1) for k in range(6)]
        for entry in page[::2]:
            entry_blob(entry)
        assert decode_page(encode_page(page)) == page

    @pytest.mark.parametrize(
        "entry",
        [
            Entry.put(True, "v", seqno=1),
            Entry.put(1, True, seqno=1),
            Entry.put(1, "v", seqno=1, delete_key=True),
            Entry.put("k", False, seqno=1),
        ],
    )
    def test_bool_fields_still_rejected(self, entry):
        with pytest.raises(TypeError):
            entry_blob(entry)
        assert not hasattr(entry, "blob")  # a failed encode caches nothing
        with pytest.raises(TypeError):
            encode_page([entry])

    def test_unsupported_value_rejected(self):
        with pytest.raises(TypeError):
            entry_blob(Entry.put(1, 3.14, seqno=1))


# ---------------------------------------------------------------------------
# golden bytes: the on-disk format did not move
# ---------------------------------------------------------------------------
def golden_entries() -> list[Entry]:
    return [
        Entry.put(1, "one", seqno=1, write_time=10),
        Entry.put(-7, None, seqno=2, write_time=11, delete_key=-3),
        Entry.tombstone(2, seqno=3, write_time=12),
        Entry.put("user:9", b"\x00\xffraw", seqno=4, write_time=13, delete_key=2**70),
        Entry.put(b"bin", 2**63, seqno=5, write_time=14, delete_key=0),
        Entry.put(2**63 - 1, -(2**63), seqno=6, write_time=15, delete_key=2**63 - 1),
        Entry.range_fence(5, 900, seqno=7, write_time=16),
        Entry.put(2**80, "unié", seqno=8, write_time=17, delete_key=-(2**63)),
        Entry.tombstone("gone", seqno=9, write_time=18),
        Entry.put(40, "", seqno=2**62, write_time=2**40),
    ]


GOLDEN_SSTABLE_SHA256 = "41d07cce4576ffc6d02e23bfdc1f0a9859988a61a509f6846de883214bdbb808"
GOLDEN_SSTABLE_CRC32 = 2152964821
GOLDEN_WAL_SHA256 = "b1ad8b015813dcb3abc24b944ca1b6c222d90f9d321ff0dafece677768582d74"


class TestGoldenBytes:
    """Digests recorded from the commit before ``entry_blob`` existed."""

    def test_three_tile_sstable(self, tmp_path):
        e = golden_entries()
        tiles = [[e[0:2], e[2:4]], [e[4:7]], [e[7:9], [], e[9:10]]]
        store = FileStore(tmp_path)
        checksum = store.write_sstable(42, tiles, {"created_at": 99})
        data = store.sstable_path(42).read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_SSTABLE_SHA256
        assert checksum == GOLDEN_SSTABLE_CRC32
        decoded, meta = store.read_sstable(42)
        assert decoded == tiles and meta == {"created_at": 99}

    def test_four_record_wal(self, tmp_path):
        e = golden_entries()
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append(e[0])
            wal.append_many([e[3], e[6]])
            wal.append(e[7])
            assert wal.records_appended == 4
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_WAL_SHA256
        with WriteAheadLog(path) as wal:
            wal.rewrite([e[0], e[3], e[6], e[7]])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_WAL_SHA256
        assert list(WriteAheadLog.replay(path)) == [e[0], e[3], e[6], e[7]]
