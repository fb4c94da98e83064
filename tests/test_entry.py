"""Unit tests for the entry model."""

import pytest

from repro.lsm.entry import Entry, EntryKind, newest_wins


class TestConstruction:
    def test_put_constructor(self):
        entry = Entry.put("k", "v", seqno=3, write_time=9)
        assert entry.is_put and not entry.is_tombstone
        assert entry.kind is EntryKind.PUT
        assert entry.value == "v"
        assert entry.write_time == 9

    def test_tombstone_constructor(self):
        entry = Entry.tombstone("k", seqno=4, write_time=11)
        assert entry.is_tombstone and not entry.is_put
        assert entry.value is None

    def test_delete_key_defaults_to_write_time(self):
        entry = Entry.put("k", "v", seqno=1, write_time=42)
        assert entry.delete_key == 42

    def test_explicit_delete_key_wins(self):
        entry = Entry.put("k", "v", seqno=1, write_time=42, delete_key=7)
        assert entry.delete_key == 7

    def test_explicit_delete_key_of_zero_is_respected(self):
        entry = Entry.put("k", "v", seqno=1, write_time=42, delete_key=0)
        assert entry.delete_key == 0


class TestSemantics:
    def test_shadows_requires_same_key_and_newer_seqno(self):
        older = Entry.put("k", "v1", seqno=1)
        newer = Entry.put("k", "v2", seqno=2)
        other = Entry.put("j", "v", seqno=3)
        assert newer.shadows(older)
        assert not older.shadows(newer)
        assert not other.shadows(older)

    def test_equality_and_hash(self):
        a = Entry.put("k", "v", seqno=1, write_time=2)
        b = Entry.put("k", "v", seqno=1, write_time=2)
        c = Entry.put("k", "v", seqno=2, write_time=2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not an entry"

    def test_equality_and_hash_ignore_cached_blob(self):
        from repro.storage.codec import entry_blob

        encoded = Entry.put("k", "v", seqno=1, write_time=2)
        fresh = Entry.put("k", "v", seqno=1, write_time=2)
        before = hash(encoded)
        entry_blob(encoded)
        assert hasattr(encoded, "blob") and not hasattr(fresh, "blob")
        assert encoded == fresh and fresh == encoded
        assert hash(encoded) == before == hash(fresh)
        assert len({encoded, fresh}) == 1

    def test_repr_mentions_kind(self):
        assert "DEL" in repr(Entry.tombstone(1, 1))
        assert "PUT" in repr(Entry.put(1, "v", 1))

    def test_newest_wins(self):
        entries = [
            Entry.put("k", "old", seqno=1),
            Entry.tombstone("k", seqno=3),
            Entry.put("k", "mid", seqno=2),
        ]
        assert newest_wins(entries).seqno == 3

    def test_newest_wins_rejects_empty(self):
        with pytest.raises(ValueError):
            newest_wins([])
