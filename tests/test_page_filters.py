"""Tests for KiWi page filters: one bit-sliced filter per woven tile."""

from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LSMConfig
from repro.core.engine import AcheronEngine
from repro.config import acheron_config
from repro.filters.bloom import (
    MAX_TILE_PAGES,
    BloomFilter,
    _key_bytes,
    build_tile_filters,
    hash_pairs,
    key_digest,
    key_hash_pair,
)
from repro.lsm.entry import Entry
from repro.lsm.run import SSTableFile

from conftest import TINY


def woven_engine(page_filters: bool, h: int = 4, **overrides):
    params = dict(TINY)
    params.update(overrides)
    return AcheronEngine(
        acheron_config(
            delete_persistence_threshold=10**6,
            pages_per_tile=h,
            kiwi_page_filters=page_filters,
            **params,
        )
    )


def load_shuffled(engine, count=800):
    for k in range(count):
        engine.put((k * 37) % count, f"v{k}")
    engine.flush()
    return count


def iter_files(tree):
    for level in tree.iter_levels():
        yield from level.iter_files()


def assert_every_key_is_a_candidate(file):
    """Each stored key's page is set in its tile's candidate mask."""
    for tile in file.tiles:
        for page_idx, page in enumerate(tile.pages):
            for entry in page.entries:
                if tile.filter is None:
                    continue
                h1, h2 = key_hash_pair(entry.key, file.bloom.salt)
                assert tile.filter.candidates(h1, h2) >> page_idx & 1, entry.key


def filter_bytes(tree):
    """Every file filter and tile filter of ``tree``, keyed by file id."""
    return {
        file.file_id: (
            bytes(file.bloom._bits),
            [None if t.filter is None else t.filter.lanes.tobytes() for t in file.tiles],
        )
        for file in iter_files(tree)
    }


def reference_bits(keys, bits_per_key, salt=None) -> bytes:
    """The file filter's bits, straight from the digest definition."""
    bloom = BloomFilter(len(keys), bits_per_key)
    bits = bytearray(len(bloom._bits))
    for key in keys:
        key_bytes = _key_bytes(key)
        digest = (
            blake2b(key_bytes, digest_size=16).digest()
            if salt is None
            else blake2b(key_bytes, digest_size=16, key=salt).digest()
        )
        h = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for _ in range(bloom.num_hashes):
            bit = h % bloom.num_bits
            bits[bit >> 3] |= 1 << (bit & 7)
            h += h2
    return bytes(bits)


class TestPageFilters:
    def test_config_serialization_roundtrip(self):
        config = LSMConfig(pages_per_tile=4, kiwi_page_filters=True)
        assert LSMConfig.from_dict(config.to_dict()) == config

    def test_filters_attached_only_on_multi_page_tiles(self):
        engine = woven_engine(page_filters=True, h=4)
        load_shuffled(engine)
        saw_filter = False
        for file in iter_files(engine.tree):
            for tile in file.tiles:
                if len(tile.pages) > 1:
                    assert tile.filter is not None
                    assert tile.filter.all_pages == (1 << len(tile.pages)) - 1
                    saw_filter = True
                else:
                    assert tile.filter is None
        assert saw_filter

    def test_enabled_by_default(self):
        assert LSMConfig().kiwi_page_filters
        engine = AcheronEngine(acheron_config(delete_persistence_threshold=10**6, **TINY))
        load_shuffled(engine)
        assert any(t.filter is not None for f in iter_files(engine.tree) for t in f.tiles)
        off = woven_engine(page_filters=False)
        load_shuffled(off)
        assert all(t.filter is None for f in iter_files(off.tree) for t in f.tiles)

    def test_manifest_false_reopens_without_filters(self, tmp_path):
        from repro.lsm.tree import LSMTree

        config = acheron_config(
            delete_persistence_threshold=10**6, pages_per_tile=4,
            kiwi_page_filters=False, **TINY,
        )
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(400):
                tree.put((k * 37) % 400, f"v{k}")
        reopened = LSMTree.open(None, tmp_path)
        assert not reopened.config.kiwi_page_filters
        files = list(iter_files(reopened))
        assert any(len(t.pages) > 1 for f in files for t in f.tiles)
        assert all(t.filter is None for f in files for t in f.tiles)
        reopened.close()

    def test_reads_stay_correct(self):
        engine = woven_engine(page_filters=True, h=8)
        count = load_shuffled(engine)
        values = {(k * 37) % count: f"v{k}" for k in range(count)}
        for k in range(0, count, 13):
            assert engine.get(k) == values[k]
        assert engine.get(10**9) is None

    def test_filters_cut_point_read_io(self):
        with_filters = woven_engine(page_filters=True, h=8)
        without = woven_engine(page_filters=False, h=8)
        count = load_shuffled(with_filters)
        load_shuffled(without)

        def probe_cost(engine):
            stats = engine.disk.stats
            before = stats.pages_read
            for k in range(0, count, 3):
                engine.get(k)
            return stats.pages_read - before

        assert probe_cost(with_filters) < probe_cost(without)

    def test_secondary_delete_preserves_filters_on_rewritten_pages(self):
        engine = woven_engine(page_filters=True, h=4)
        load_shuffled(engine)
        report = engine.delete_range(0, engine.clock.now() // 2, method="kiwi")
        assert report.pages_rewritten > 0
        values = dict(engine.scan(0, 10**9))
        for key, value in list(values.items())[::7]:
            assert engine.get(key) == value
        # Rewritten tiles get fresh filters over their surviving pages.
        for file in iter_files(engine.tree):
            for tile in file.tiles:
                assert (tile.filter is not None) == (len(tile.pages) > 1)
            assert_every_key_is_a_candidate(file)

    def test_secondary_delete_rebuilds_at_the_level_budget(self):
        # Under Monkey, deeper levels get fewer bits per key; a tile
        # rewritten by a KiWi delete keeps its level's budget.
        engine = woven_engine(
            page_filters=True, h=4, bloom_allocation="monkey", trivial_moves=False
        )
        load_shuffled(engine, 3_000)
        config = engine.tree.config
        deep = [
            (level.index, file)
            for level in engine.tree.iter_levels()
            for file in level.iter_files()
            if level.index > 1
        ]
        assert deep and config.bloom_bits_for_level(deep[0][0]) < config.bloom_bits_per_key
        old_tiles = {id(t) for f in iter_files(engine.tree) for t in f.tiles}
        report = engine.delete_range(0, engine.clock.now() // 2, method="kiwi")
        assert report.pages_rewritten > 0
        rebuilt_deep = 0
        for level in engine.tree.iter_levels():
            bits = config.bloom_bits_for_level(level.index)
            for file in level.iter_files():
                for tile in file.tiles:
                    if tile.filter is not None:
                        largest = max(len(page) for page in tile.pages)
                        assert tile.filter.num_bits == max(8, int(largest * bits))
                        rebuilt_deep += level.index > 1 and id(tile) not in old_tiles
                assert_every_key_is_a_candidate(file)
        assert rebuilt_deep

    def test_filters_survive_restart(self, tmp_path):
        from repro.lsm.tree import LSMTree

        params = dict(TINY)
        config = acheron_config(
            delete_persistence_threshold=10**6,
            pages_per_tile=4,
            kiwi_page_filters=True,
            **params,
        )
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(400):
                tree.put((k * 37) % 400, f"v{k}")
        reopened = LSMTree.open(None, tmp_path)
        assert reopened.config.kiwi_page_filters
        found = False
        for file in iter_files(reopened):
            for tile in file.tiles:
                if len(tile.pages) > 1:
                    assert tile.filter is not None
                    found = True
            assert_every_key_is_a_candidate(file)
        assert found
        reopened.close()

    @pytest.mark.parametrize("salted", [False, True], ids=["unsalted", "salted"])
    def test_recovery_rebuilds_identical_filters(self, tmp_path, salted):
        from repro.lsm.tree import LSMTree

        config = acheron_config(
            delete_persistence_threshold=10**6, pages_per_tile=8,
            bloom_salted=salted, **TINY,
        )
        tree = LSMTree.open(config, tmp_path)
        for k in range(1_500):
            tree.put((k * 37) % 1_500, f"v{k}", delete_key=(k * 11) % 97)
        tree.flush()
        before = filter_bytes(tree)
        tree.close()
        reopened = LSMTree.open(None, tmp_path)
        assert (reopened.bloom_salt is not None) == salted
        assert any(
            lanes is not None for _, tiles in before.values() for lanes in tiles
        )
        assert filter_bytes(reopened) == before
        reopened.close()

    def test_no_false_negatives_through_engine(self):
        engine = woven_engine(page_filters=True, h=8, bloom_bits_per_key=2.0)
        count = load_shuffled(engine, 600)
        values = {(k * 37) % count: f"v{k}" for k in range(count)}
        for key, value in values.items():
            assert engine.get(key) == value


class TestTileFilterBuild:
    @given(
        keys=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=300, unique=True),
        delete_keys=st.lists(st.integers(0, 1_000), min_size=300, max_size=300),
        h=st.sampled_from([2, 4, 8, 16]),
        bits=st.sampled_from([0, 2, 10]),
        salted=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_key_is_a_candidate_and_file_filter_matches_build(
        self, keys, delete_keys, h, bits, salted
    ):
        salt = b"\x07" * 16 if salted else None
        keys.sort()
        entries = [
            Entry.put(k, None, seqno=i + 1, delete_key=delete_keys[i])
            for i, k in enumerate(keys)
        ]
        config = LSMConfig(
            entries_per_page=4, pages_per_tile=h, bloom_bits_per_key=bits,
            kiwi_page_filters=True,
        )
        file = SSTableFile.build(1, entries, config, created_at=0, salt=salt)
        assert bytes(file.bloom._bits) == bytes(BloomFilter.build(keys, bits, salt)._bits)
        assert bytes(file.bloom._bits) == reference_bits(keys, bits, salt)
        for tile in file.tiles:
            assert (tile.filter is not None) == (bits > 0 and len(tile.pages) > 1)
        assert_every_key_is_a_candidate(file)

    @pytest.mark.parametrize(
        "pages, itemsize", [(2, 1), (8, 1), (9, 2), (16, 2), (32, 4), (33, 8), (64, 8)]
    )
    def test_lane_width_fits_the_widest_tile(self, pages, itemsize):
        digests = b"".join(key_digest(k) for k in range(pages * 2))
        h1, h2 = hash_pairs(digests)
        (tile_filter,) = build_tile_filters(h1, h2, [[2] * pages], 10.0)
        assert tile_filter.lanes.itemsize == itemsize
        for k in range(pages * 2):
            assert tile_filter.candidates(*key_hash_pair(k)) >> (k // 2) & 1

    def test_tiles_wider_than_a_lane_go_unfiltered(self):
        pages = MAX_TILE_PAGES + 1
        h1, h2 = hash_pairs(b"".join(key_digest(k) for k in range(pages + 1)))
        assert build_tile_filters(h1, h2, [[1] * pages, [1]], 10.0) == [None, None]
