"""Unit and property tests for pages, delete tiles, and the KiWi weave."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters.bloom import BloomFilter
from repro.lsm.entry import Entry
from repro.lsm.page import DeleteTile, Page, weave_tile
from repro.lsm.run import PageReader, SSTableFile
from repro.storage.cache import BlockCache
from repro.storage.disk import SimulatedDisk


def put(key, seqno=None, dkey=None, t=0):
    return Entry.put(key, f"v{key}", seqno if seqno is not None else key + 1, t, dkey)


def tomb(key, seqno, t=0):
    return Entry.tombstone(key, seqno, write_time=t)


class TestPage:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Page([])

    def test_bounds_and_counts(self):
        page = Page([put(1, dkey=50), tomb(3, 10, t=7), put(5, dkey=2)])
        assert page.min_key == 1 and page.max_key == 5
        assert page.min_delete_key == 2 and page.max_delete_key == 50
        assert page.tombstone_count == 1
        assert len(page) == 3

    def test_get_binary_search(self):
        page = Page([put(k) for k in range(0, 20, 2)])
        assert page.get(6).key == 6
        assert page.get(7) is None
        assert page.get(-1) is None
        assert page.get(99) is None

    def test_covers_key(self):
        page = Page([put(3), put(9)])
        assert page.covers_key(3) and page.covers_key(5) and page.covers_key(9)
        assert not page.covers_key(2) and not page.covers_key(10)

    def test_delete_range_classification(self):
        page = Page([put(1, dkey=10), put(2, dkey=20)])
        assert page.covered_by_delete_range(10, 20)
        assert page.covered_by_delete_range(5, 25)
        assert not page.covered_by_delete_range(11, 25)
        assert page.overlaps_delete_range(15, 30)
        assert not page.overlaps_delete_range(21, 30)
        assert not page.overlaps_delete_range(0, 9)


class TestDeleteTile:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DeleteTile([])

    def test_bounds_span_pages(self):
        tile = DeleteTile([Page([put(5, dkey=1)]), Page([put(2, dkey=9)])])
        assert tile.min_key == 2 and tile.max_key == 5
        assert tile.min_delete_key == 1 and tile.max_delete_key == 9
        assert tile.entry_count == 2

    def test_candidate_pages_checks_every_overlapping_page(self):
        # Sort-key ranges of pages inside a tile may overlap arbitrarily,
        # so an unfiltered tile's point lookup reads every page whose range
        # covers the key, lowest page first, and no other.
        tile = DeleteTile(
            [Page([put(1), put(10)]), Page([put(5), put(6)]), Page([put(20), put(30)])]
        )
        file = SSTableFile(1, [tile], BloomFilter(6, 0), created_at=0)
        for key, found, pages_read in ((6, 6, 2), (25, None, 1), (15, None, 0)):
            reader = PageReader(SimulatedDisk(), BlockCache(0))
            entry = file.get(key, reader)
            assert (entry and entry.key) == found
            assert reader.disk.stats.pages_read == pages_read

    def test_iter_entries_sorted_merges_pages(self):
        tile = DeleteTile([Page([put(1), put(9)]), Page([put(4), put(7)])])
        assert [e.key for e in tile.iter_entries_sorted()] == [1, 4, 7, 9]


class TestWeave:
    def test_single_page_tile_keeps_sort_order(self):
        chunk = [put(k) for k in range(8)]
        tile = weave_tile(chunk, entries_per_page=8, pages_per_tile=1)
        assert len(tile.pages) == 1
        assert [e.key for e in tile.pages[0].entries] == list(range(8))

    def test_weave_partitions_delete_keys_across_pages(self):
        # 16 entries, delete keys reversed w.r.t. sort keys.
        chunk = [put(k, dkey=100 - k) for k in range(16)]
        tile = weave_tile(chunk, entries_per_page=4, pages_per_tile=4)
        assert len(tile.pages) == 4
        # Pages must partition the delete-key domain...
        for left, right in zip(tile.pages, tile.pages[1:]):
            assert left.max_delete_key <= right.min_delete_key
        # ...and each page must be internally sort-key ordered.
        for page in tile.pages:
            keys = [e.key for e in page.entries]
            assert keys == sorted(keys)
        # No entries lost.
        assert tile.entry_count == 16

    def test_weave_rejects_empty_chunk(self):
        with pytest.raises(ValueError):
            weave_tile([], 4, 4)

    def test_small_chunk_becomes_single_page(self):
        chunk = [put(k) for k in range(3)]
        tile = weave_tile(chunk, entries_per_page=8, pages_per_tile=4)
        assert len(tile.pages) == 1

    @given(
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
            min_size=1,
            max_size=64,
            unique_by=lambda kv: kv[0],
        ),
        st.integers(1, 8),
        st.integers(1, 4),
    )
    @settings(max_examples=60)
    def test_property_weave_preserves_entries_and_partitions_dkeys(
        self, pairs, entries_per_page, pages_per_tile
    ):
        chunk = sorted((put(k, dkey=d) for k, d in pairs), key=lambda e: e.key)
        tile = weave_tile(chunk, entries_per_page, pages_per_tile)
        woven = sorted(tile.iter_entries_sorted(), key=lambda e: e.key)
        assert [e.key for e in woven] == [e.key for e in chunk]
        if pages_per_tile > 1 and len(chunk) > entries_per_page:
            for left, right in zip(tile.pages, tile.pages[1:]):
                assert left.max_delete_key <= right.min_delete_key
        for page in tile.pages:
            assert len(page) <= entries_per_page
            keys = [e.key for e in page.entries]
            assert keys == sorted(keys)
