"""Unit tests for SSTable files, runs, and the cache-aware page reader."""

import pytest

from repro.config import LSMConfig
from repro.lsm.entry import Entry
from repro.lsm.run import (
    FileIdAllocator,
    PageReader,
    Run,
    SSTableFile,
    build_files,
)
from repro.lsm.tree import LSMTree
from repro.storage.cache import BlockCache
from repro.storage.disk import SimulatedDisk


def put(key, seqno=None, dkey=None):
    return Entry.put(key, f"v{key}", seqno if seqno is not None else key + 1, 0, dkey)


def scanned_keys(run, lo, hi, r):
    """Keys of the run's in-range blocks, in the order the scan sees them."""
    return [e.key for block in run.scan_blocks(lo, hi, r) for e in block]


def tomb(key, seqno, t=0):
    return Entry.tombstone(key, seqno, write_time=t)


def config(**kw):
    kw.setdefault("memtable_entries", 64)
    kw.setdefault("entries_per_page", 4)
    return LSMConfig(**kw)


def reader(cache_pages=0):
    return PageReader(SimulatedDisk(), BlockCache(cache_pages))


class TestFileBuild:
    def test_build_rejects_empty(self):
        with pytest.raises(ValueError):
            SSTableFile.build(1, [], config(), created_at=0)

    def test_metadata(self):
        entries = [put(k) for k in range(10)]
        entries[3] = tomb(3, 99, t=42)
        entries[7] = tomb(7, 100, t=17)
        file = SSTableFile.build(1, entries, config(), created_at=5)
        assert file.entry_count == 10
        assert file.tombstone_count == 2
        assert file.min_key == 0 and file.max_key == 9
        assert file.oldest_tombstone_time == 17
        assert file.created_at == 5
        assert file.tombstone_density == pytest.approx(0.2)
        file.check_invariants()

    def test_no_tombstones_means_no_age(self):
        file = SSTableFile.build(1, [put(k) for k in range(4)], config(), 0)
        assert file.oldest_tombstone_time is None
        assert file.tombstone_density == 0.0

    def test_page_count_and_flat_index(self):
        cfg = config(entries_per_page=4, pages_per_tile=2)
        file = SSTableFile.build(1, [put(k) for k in range(20)], cfg, 0)
        # 20 entries / 4 per page = 5 pages; tiles of 2 pages -> 3 tiles.
        assert file.page_count == 5
        assert len(file.tiles) == 3
        assert file.flat_page_index(0, 0) == 0
        assert file.flat_page_index(1, 0) == 2
        assert file.flat_page_index(2, 0) == 4

    def test_build_files_partitions_at_limit(self):
        cfg = config(max_file_entries=8)
        files = build_files([put(k) for k in range(20)], cfg, FileIdAllocator(), 0)
        assert [f.entry_count for f in files] == [8, 8, 4]
        assert [f.file_id for f in files] == [1, 2, 3]
        # Files partition the key space in order.
        assert files[0].max_key < files[1].min_key < files[2].min_key

    def test_file_id_allocator(self):
        ids = FileIdAllocator(start=5)
        assert ids() == 5 and ids() == 6
        ids.advance_past(10)
        assert ids() == 11
        ids.advance_past(3)  # never goes backwards
        assert ids() == 12
        assert ids.peek() == 13


class TestFileReads:
    def test_get_found_and_missing(self):
        file = SSTableFile.build(1, [put(k) for k in range(0, 40, 2)], config(), 0)
        r = reader()
        assert file.get(10, r).value == "v10"
        assert file.get(11, r) is None
        assert file.get(-5, r) is None

    def test_get_charges_one_page_read_classic_layout(self):
        file = SSTableFile.build(1, [put(k) for k in range(32)], config(), 0)
        r = reader()
        file.get(17, r)
        assert r.disk.stats.pages_read == 1

    def test_kiwi_point_lookup_may_probe_multiple_pages(self):
        # Weave with h=4: a point probe inside a tile may touch up to h pages.
        cfg = config(entries_per_page=4, pages_per_tile=4)
        entries = [put(k, dkey=1000 - k) for k in range(16)]
        file = SSTableFile.build(1, entries, cfg, 0)
        r = reader()
        assert file.get(15, r).key == 15
        assert 1 <= r.disk.stats.pages_read <= 4

    def test_cache_absorbs_repeat_reads(self):
        file = SSTableFile.build(1, [put(k) for k in range(32)], config(), 0)
        r = reader(cache_pages=16)
        file.get(17, r)
        first = r.disk.stats.pages_read
        file.get(17, r)
        assert r.disk.stats.pages_read == first  # served from cache

    def test_range_entries_inclusive(self):
        file = SSTableFile.build(1, [put(k) for k in range(30)], config(), 0)
        assert scanned_keys(Run([file]), 7, 13, reader()) == list(range(7, 14))

    def test_range_entries_pays_all_pages_of_overlapping_tiles(self):
        cfg = config(entries_per_page=4, pages_per_tile=4)
        entries = [put(k, dkey=1000 - k) for k in range(16)]  # one tile
        file = SSTableFile.build(1, entries, cfg, 0)
        r = reader()
        assert scanned_keys(Run([file]), 0, 1, r) == [0, 1]
        assert r.disk.stats.pages_read == 4  # the whole tile

    def test_iter_all_entries_is_key_ordered_even_when_woven(self):
        cfg = config(entries_per_page=4, pages_per_tile=4)
        entries = [put(k, dkey=1000 - k) for k in range(16)]
        file = SSTableFile.build(1, entries, cfg, 0)
        assert [e.key for e in file.iter_all_entries()] == list(range(16))

    def test_overlaps(self):
        file = SSTableFile.build(1, [put(k) for k in range(10, 20)], config(), 0)
        assert file.overlaps(5, 10)
        assert file.overlaps(19, 30)
        assert not file.overlaps(0, 9)
        assert not file.overlaps(20, 30)


class TestRun:
    def _files(self):
        cfg = config(max_file_entries=8)
        return build_files([put(k) for k in range(24)], cfg, FileIdAllocator(), 0)

    def test_rejects_empty_and_overlapping(self):
        with pytest.raises(ValueError):
            Run([])
        cfg = config()
        a = SSTableFile.build(1, [put(k) for k in range(10)], cfg, 0)
        b = SSTableFile.build(2, [put(k) for k in range(5, 15)], cfg, 0)
        with pytest.raises(ValueError):
            Run([a, b])

    def test_sorts_files_by_min_key(self):
        files = self._files()
        run = Run(list(reversed(files)))
        assert [f.file_id for f in run.files] == [f.file_id for f in files]

    def test_accounting(self):
        run = Run(self._files())
        assert run.entry_count == 24
        assert run.tombstone_count == 0
        assert len(run) == 3
        assert run.min_key == 0 and run.max_key == 23

    @staticmethod
    def _one_run_tree(keys, **kw):
        """A tree whose only run holds ``keys``, split over several files."""
        tree = LSMTree(config(**kw))
        tree.put_many((k, f"v{k}") for k in keys)
        tree.flush()
        (level,) = [lvl for lvl in tree.iter_levels() if lvl.runs]
        (run,) = level.runs
        assert len(run.files) > 1
        return tree, run

    def test_get_routes_to_the_right_file(self):
        tree, run = self._one_run_tree(range(24), max_file_entries=8)
        assert tree.get(0) == "v0"
        assert tree.get(15) == "v15"
        assert tree.get(23) == "v23"
        assert tree.get(50) is None
        # Each hit probed exactly the one file whose fence holds the key.
        (row,) = [r for r in tree.read_stats()["levels"] if r["lookup_serves"]]
        assert row["lookup_serves"] == 3 and row["lookup_probes"] == 3

    def test_bloom_prevents_page_reads_for_missing_keys(self):
        tree, run = self._one_run_tree(
            [k * 2 for k in range(12)], max_file_entries=8, bloom_bits_per_key=16
        )
        misses = sum(1 for k in range(1, 40, 2) if tree.get(k) is None)
        assert misses == 20
        # With 16 bits/key nearly all odd probes are filtered before I/O.
        assert tree.disk.stats.pages_read <= 2

    def test_range_entries_across_files(self):
        run = Run(self._files())
        assert scanned_keys(run, 5, 18, reader()) == list(range(5, 19))

    def test_overlapping_files(self):
        run = Run(self._files())  # files cover 0-7, 8-15, 16-23
        assert [f.min_key for f in run.overlapping_files(6, 9)] == [0, 8]
        assert run.overlapping_files(30, 40) == []

    def test_iter_all_entries(self):
        run = Run(self._files())
        assert [e.key for e in run.iter_all_entries()] == list(range(24))
