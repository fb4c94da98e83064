"""Durability and recovery tests: the engine must survive restarts and
crash shapes with its exact logical state."""

import pytest

from repro.config import acheron_config, baseline_config
from repro.lsm.tree import LSMTree
from repro.storage.filestore import FileStore

from conftest import TINY


def durable_config(**overrides):
    params = dict(TINY)
    params.update(overrides)
    return baseline_config(**params)


class TestReopen:
    def test_clean_close_and_reopen_preserves_data(self, tmp_path):
        config = durable_config()
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(500):
                tree.put(k, f"v{k}")
            for k in range(0, 100, 2):
                tree.delete(k)
        reopened = LSMTree.open(config, tmp_path)
        for k in range(0, 100, 2):
            assert reopened.get(k) is None
        for k in range(1, 100, 2):
            assert reopened.get(k) == f"v{k}"
        assert reopened.get(400) == "v400"
        reopened.check_invariants()

    def test_reopen_preserves_scan_results(self, tmp_path):
        config = durable_config()
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(300):
                tree.put(k, k * 2)
            expected = list(tree.scan(50, 150))
        reopened = LSMTree.open(config, tmp_path)
        assert list(reopened.scan(50, 150)) == expected

    def test_reopen_restores_clock_and_seqnos(self, tmp_path):
        config = durable_config()
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(200):
                tree.put(k, k)
            tick = tree.clock.now()
        reopened = LSMTree.open(config, tmp_path)
        assert reopened.clock.now() >= tick
        # New writes must win over everything recovered.
        reopened.put(0, "fresh")
        assert reopened.get(0) == "fresh"

    def test_unflushed_writes_recovered_from_wal(self, tmp_path):
        config = durable_config()
        tree = LSMTree.open(config, tmp_path)
        for k in range(30):  # well under the 64-entry buffer: no flush
            tree.put(k, f"v{k}")
        tree.delete(3)
        # Simulate a crash: no close(), no flush.
        del tree
        recovered = LSMTree.open(config, tmp_path)
        assert recovered.get(5) == "v5"
        assert recovered.get(3) is None
        assert len(recovered.memtable) == 30

    def test_torn_wal_tail_loses_only_the_last_write(self, tmp_path):
        config = durable_config()
        tree = LSMTree.open(config, tmp_path)
        for k in range(20):
            tree.put(k, f"v{k}")
        del tree
        store = FileStore(tmp_path)
        data = store.wal_path.read_bytes()
        store.wal_path.write_bytes(data[:-4])  # crash mid-append
        recovered = LSMTree.open(config, tmp_path)
        assert len(recovered.memtable) == 19
        assert recovered.get(18) == "v18"
        assert recovered.get(19) is None

    def test_kiwi_layout_survives_restart(self, tmp_path):
        params = dict(TINY)
        config = acheron_config(
            delete_persistence_threshold=5_000, pages_per_tile=4, **params
        )
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(400):
                tree.put((k * 37) % 400, f"v{k}")
        reopened = LSMTree.open(config, tmp_path)
        for level in reopened.iter_levels():
            for run in level.runs:
                for file in run.files:
                    file.check_invariants()
        # The weave (multi-page tiles) must survive serialization.
        tiles = [
            tile
            for level in reopened.iter_levels()
            for run in level.runs
            for file in run.files
            for tile in file.tiles
        ]
        assert any(len(tile.pages) > 1 for tile in tiles)

    def test_fade_deadlines_rebuilt_after_restart(self, tmp_path):
        params = dict(TINY)
        config = acheron_config(
            delete_persistence_threshold=2_000, pages_per_tile=1, **params
        )
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(800):
                tree.put(k, k)
            for k in range(0, 800, 2):
                tree.delete(k)
        reopened = LSMTree.open(config, tmp_path)
        if reopened.tombstone_count_on_disk:
            assert reopened.fade.tracked_file_count() > 0
        # Deadlines must still be honored after restart.
        reopened.advance_time(2_500)
        assert reopened.tombstone_count_on_disk == 0

    def test_wal_tombstones_reregister_with_listener(self, tmp_path):
        from repro.core.persistence import PersistenceTracker

        config = durable_config()
        tree = LSMTree.open(config, tmp_path)
        tree.put(1, "x")
        tree.delete(1)
        del tree  # crash with the tombstone only in the WAL
        tracker = PersistenceTracker(threshold=10_000)
        recovered = LSMTree.open(config, tmp_path, listener=tracker)
        assert tracker.registered_count == 1
        assert tracker.pending_count == 1
        recovered.close()


class TestStoreHygiene:
    def test_no_orphan_sstables_after_compactions(self, tmp_path):
        config = durable_config()
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(1500):
                tree.put(k % 400, k)
        store = FileStore(tmp_path)
        manifest = store.read_manifest()
        live = {fid for runs in manifest["levels"] for run in runs for fid in run}
        on_disk = set(store.list_sstable_ids())
        assert on_disk == live

    def test_manifest_tracks_next_file_id(self, tmp_path):
        config = durable_config()
        tree = LSMTree.open(config, tmp_path)
        for k in range(300):
            tree.put(k, k)
        tree.close()  # close flushes the buffer, allocating further ids
        next_id = tree.file_ids.peek()
        manifest = FileStore(tmp_path).read_manifest()
        assert manifest["next_file_id"] == next_id
        reopened = LSMTree.open(config, tmp_path)
        # New files must not collide with recovered ones.
        assert reopened.file_ids.peek() >= next_id

    def test_two_directories_are_independent(self, tmp_path):
        config = durable_config()
        with LSMTree.open(config, tmp_path / "a") as a:
            a.put(1, "a-data")
        with LSMTree.open(config, tmp_path / "b") as b:
            b.put(1, "b-data")
        assert LSMTree.open(config, tmp_path / "a").get(1) == "a-data"
        assert LSMTree.open(config, tmp_path / "b").get(1) == "b-data"

    def test_secondary_delete_persists_across_restart(self, tmp_path):
        from repro.core.kiwi import kiwi_range_delete

        params = dict(TINY)
        config = acheron_config(
            delete_persistence_threshold=50_000, pages_per_tile=4, **params
        )
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(400):
                tree.put(k, f"v{k}")
            cutoff = tree.clock.now() // 2
            kiwi_range_delete(tree, 0, cutoff)
            survivors = dict(tree.scan(0, 10_000))
        reopened = LSMTree.open(config, tmp_path)
        assert dict(reopened.scan(0, 10_000)) == survivors


class TestReadOnlyOpen:
    def _built(self, tmp_path):
        config = durable_config()
        tree = LSMTree.open(config, tmp_path)
        for k in range(300):
            tree.put(k, f"v{k}")
        for k in range(200, 230):  # leave entries in the WAL
            tree.put(k, "buffered")
        tree._wal.close()  # crash
        return config

    def test_reads_work_mutations_raise(self, tmp_path):
        from repro.errors import EngineClosedError

        config = self._built(tmp_path)
        tree = LSMTree.open(config, tmp_path, read_only=True)
        assert tree.get(5) == "v5"
        assert tree.get(205) == "buffered"  # WAL replayed into memory
        assert list(tree.scan(0, 3))
        with pytest.raises(EngineClosedError):
            tree.put(1, "nope")
        with pytest.raises(EngineClosedError):
            tree.delete(1)
        with pytest.raises(EngineClosedError):
            tree.flush()
        with pytest.raises(EngineClosedError):
            tree.advance_time(10)
        with pytest.raises(EngineClosedError):
            tree.full_compaction()

    def test_read_only_open_leaves_store_untouched(self, tmp_path):
        import hashlib

        config = self._built(tmp_path)

        def fingerprint():
            digest = hashlib.sha256()
            for path in sorted(p for p in tmp_path.iterdir() if p.is_file()):
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
            return digest.hexdigest()

        before = fingerprint()
        tree = LSMTree.open(config, tmp_path, read_only=True)
        tree.get(5)
        list(tree.scan(0, 100))
        tree.close()
        assert fingerprint() == before

    def test_engine_facade_read_only(self, tmp_path):
        from repro.core.engine import AcheronEngine
        from repro.errors import ConfigError, EngineClosedError

        self._built(tmp_path)
        engine = AcheronEngine(config=None, directory=str(tmp_path), read_only=True)
        assert engine.get(5) == "v5"
        with pytest.raises(EngineClosedError):
            engine.put(1, "x")
        engine.close()
        with pytest.raises(ConfigError):
            AcheronEngine(read_only=True)  # no directory: meaningless


class TestHardenedRecovery:
    """The crash-safety hardening: corrupt-file handling, degraded mode,
    recovered tombstone ages, and the write-ordering regressions."""

    def _flushed_store(self, tmp_path, config=None):
        config = config or durable_config()
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(400):
                tree.put(k, f"v{k}")
        return config

    def test_torn_tail_sstable_detected_at_open(self, tmp_path):
        from repro.errors import CorruptionError

        config = self._flushed_store(tmp_path)
        store = FileStore(tmp_path)
        victim = store.list_sstable_ids()[0]
        path = store.sstable_path(victim)
        path.write_bytes(path.read_bytes()[:-7])  # torn mid-write
        with pytest.raises(CorruptionError):
            LSMTree.open(config, tmp_path)

    def test_mid_file_corruption_detected_at_open(self, tmp_path):
        from repro.errors import CorruptionError

        config = self._flushed_store(tmp_path)
        store = FileStore(tmp_path)
        victim = store.list_sstable_ids()[0]
        path = store.sstable_path(victim)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            LSMTree.open(config, tmp_path)

    def test_degraded_open_salvages_the_readable_rest(self, tmp_path):
        config = self._flushed_store(tmp_path)
        store = FileStore(tmp_path)
        victim = store.list_sstable_ids()[0]
        path = store.sstable_path(victim)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x10
        path.write_bytes(bytes(data))
        tree = LSMTree.open(config, tmp_path, degraded_ok=True)
        assert tree.degraded
        assert tree.recovery_errors
        # Mutations refuse; reads over the surviving files still work.
        from repro.errors import EngineClosedError

        with pytest.raises(EngineClosedError):
            tree.put(9_999, "nope")
        salvaged = sum(1 for k in range(400) if tree.get(k) is not None)
        assert 0 < salvaged < 400

    def test_startup_sweeps_orphan_temp_files(self, tmp_path):
        config = self._flushed_store(tmp_path)
        junk = tmp_path / "sstable-000099.json.tmp"
        junk.write_text("half a publication")
        tree = LSMTree.open(config, tmp_path)
        assert not junk.exists()
        assert any("temp" in line for line in tree.recovery_log)
        tree.close()

    def test_startup_garbage_collects_unreferenced_sstables(self, tmp_path):
        config = self._flushed_store(tmp_path)
        store = FileStore(tmp_path)
        # A flush that crashed after publishing its file but before the
        # manifest: the file exists, nothing references it.
        store.write_sstable(4_242, [[[]]], {"created_at": 0})
        tree = LSMTree.open(config, tmp_path)
        assert 4_242 not in FileStore(tmp_path).list_sstable_ids()
        assert any("garbage-collected" in line for line in tree.recovery_log)
        tree.close()

    def test_pending_tombstone_ages_rebuilt_after_restart(self, tmp_path):
        from repro.core.persistence import PersistenceTracker

        params = dict(TINY)
        config = acheron_config(
            delete_persistence_threshold=50_000, pages_per_tile=4, **params
        )
        tracker = PersistenceTracker(threshold=50_000)
        tree = LSMTree.open(config, tmp_path, listener=tracker)
        for k in range(200):
            tree.put(k, f"v{k}")
        for k in range(0, 60, 3):
            tree.delete(k)
        tree.flush()  # tombstones reach disk, far from persisting (D_th huge)
        for k in range(60, 80, 4):
            tree.delete(k)  # and a few only in the WAL
        before = set(tracker.pending_items())
        assert before
        now = tree.clock.now()
        ages_before = tracker.pending_ages(now)
        del tree  # crash

        fresh = PersistenceTracker(threshold=50_000)
        recovered = LSMTree.open(config, tmp_path, listener=fresh)
        assert set(fresh.pending_items()) == before
        # Ages anchor on the original write ticks, not the reopen tick.
        assert fresh.pending_ages(now) == ages_before
        assert fresh.pending_ages(recovered.clock.now()) >= ages_before
        recovered.close()

    def test_compaction_manifest_does_not_eat_buffered_writes(self, tmp_path):
        """Regression: a compaction publishes a manifest whose global seqno
        covers buffered entries; replay must filter on the *flushed* mark
        or those acknowledged writes vanish on the next recovery."""
        config = durable_config()
        tree = LSMTree.open(config, tmp_path)
        for k in range(300):
            tree.put(k, f"v{k}")
        tree.flush()
        for k in range(300, 330):
            tree.put(k, f"buffered{k}")  # in memtable + WAL only
        tree.full_compaction()  # flushes, merges, publishes a manifest
        for k in range(330, 350):
            tree.put(k, f"buffered{k}")  # buffered again, after the manifest
        del tree  # crash before any further flush
        recovered = LSMTree.open(config, tmp_path)
        for k in range(330, 350):
            assert recovered.get(k) == f"buffered{k}", k
        recovered.close()

    def test_range_delete_purges_buffered_values_durably(self, tmp_path):
        """Regression: a secondary delete removes matching memtable entries;
        the WAL must be rewritten or a crash resurrects them."""
        from repro.core.kiwi import kiwi_range_delete

        params = dict(TINY)
        config = acheron_config(
            delete_persistence_threshold=50_000, pages_per_tile=4, **params
        )
        tree = LSMTree.open(config, tmp_path)
        for k in range(200):
            tree.put(k, f"v{k}")
        tree.flush()
        for k in range(200, 230):
            tree.put(k, f"buffered{k}")  # buffered, delete keys = now-ish ticks
        lo, hi = 0, tree.clock.now()
        report = kiwi_range_delete(tree, lo, hi)
        assert report.memtable_entries_deleted > 0
        survivors = dict(tree.scan(0, 10_000))
        del tree  # crash: recovery must not resurrect the purged values
        recovered = LSMTree.open(config, tmp_path)
        assert dict(recovered.scan(0, 10_000)) == survivors
        for k in range(200, 230):
            assert recovered.get(k) is None
        recovered.close()

    def test_wal_rotation_is_crash_safe_on_flush(self, tmp_path):
        """A crash at any rotation step leaves either the old complete log
        (filtered as duplicates on replay) or the fresh one."""
        from repro.storage.faults import FaultInjector, SimulatedCrash
        from repro.storage import faults as fp

        config = durable_config()
        inj = FaultInjector()
        tree = LSMTree.open(config, tmp_path, faults=inj)
        for k in range(50):
            tree.put(k, f"v{k}")
        inj.arm(fp.WAL_ROTATE_RENAME, fp.CRASH)
        with pytest.raises(SimulatedCrash):
            tree.flush()  # manifest publishes, then rotation crashes
        del tree
        recovered = LSMTree.open(config, tmp_path)
        # Old WAL records replay but are filtered: no duplicates, no loss.
        for k in range(50):
            assert recovered.get(k) == f"v{k}"
        assert any("skipped" in line for line in recovered.recovery_log)
        recovered.verify_invariants()
        recovered.close()

    def test_verify_invariants_passes_on_healthy_tree(self, tmp_path):
        config = durable_config()
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(500):
                tree.put(k % 120, k)
            tree.verify_invariants()
        LSMTree.open(config, tmp_path).verify_invariants()

    def test_verify_invariants_catches_corrupted_accounting(self, tmp_path):
        from repro.errors import InvariantViolationError

        config = durable_config()
        tree = LSMTree.open(config, tmp_path)
        for k in range(500):
            tree.put(k, k)
        level = next(lvl for lvl in tree.iter_levels() if lvl.runs)
        level.entry_count += 7  # sabotage the cached accounting
        with pytest.raises(InvariantViolationError):
            tree.verify_invariants()


class TestSerialiseOnce:
    """Entries are encoded once (WAL append) and every later writer moves
    those bytes; what lands on disk must still be exactly the entries."""

    CONFIG = dict(delete_persistence_threshold=600, pages_per_tile=4, **TINY)

    @staticmethod
    def _tiles(file):
        return [[page.entries for page in tile.pages] for tile in file.tiles]

    def _assert_disk_matches_memory(self, engine, directory):
        store = FileStore(directory)
        files = {
            file.file_id: file
            for level in engine.tree.iter_levels()
            for file in level.iter_files()
        }
        assert files and set(store.list_sstable_ids()) >= set(files)
        for file_id, file in files.items():
            tiles, meta = store.read_sstable(file_id)
            assert tiles == self._tiles(file), f"sstable {file_id} drifted from memory"
            assert meta == {"created_at": file.created_at}
        return files

    @pytest.mark.usefixtures("serial_write_path")
    def test_blobs_carry_through_flush_fade_and_kiwi(self, tmp_path):
        from repro.core.engine import AcheronEngine
        from repro.tools.doctor import scrub_store

        config = acheron_config(**self.CONFIG)
        engine = AcheronEngine(config, directory=str(tmp_path))
        for k in range(900):
            engine.put(k, f"v{k}")
        for k in range(0, 900, 3):
            engine.delete(k)
        engine.flush()
        self._assert_disk_matches_memory(engine, tmp_path)

        engine.tree.advance_time(700)  # past D_th: FADE must compact
        reasons = {event.reason for event in engine.tree.compaction_log}
        assert reasons & {"ttl_expiry", "bottom_purge"}
        self._assert_disk_matches_memory(engine, tmp_path)

        for k in range(900, 1_300):
            engine.put(k, f"v{k}")
        report = engine.delete_range(0, 400, method="kiwi")
        assert report.files_modified > 0 and report.entries_deleted > 0
        files = self._assert_disk_matches_memory(engine, tmp_path)
        assert scrub_store(tmp_path).healthy
        # Everything that reached a file went through the WAL first, so
        # it is carrying the bytes it was appended with.
        assert all(
            hasattr(entry, "blob")
            for file in files.values()
            for tile in self._tiles(file)
            for page in tile
            for entry in page
        )
        expected = dict(engine.scan(0, 2_000))
        engine.close()  # flushes the buffer: the file set may move once more
        files = self._assert_disk_matches_memory(engine, tmp_path)
        store = FileStore(tmp_path)
        written = {fid: store.sstable_path(fid).read_bytes() for fid in files}

        # Entries decoded at reopen carry no blob; re-persisting them
        # encodes lazily and must reproduce the files byte for byte.
        reopened = AcheronEngine(config, directory=str(tmp_path))
        assert dict(reopened.scan(0, 2_000)) == expected
        recovered = self._assert_disk_matches_memory(reopened, tmp_path)
        assert set(recovered) == set(files)
        for file_id, file in recovered.items():
            tiles = self._tiles(file)
            assert not any(hasattr(e, "blob") for tile in tiles for page in tile for e in page)
            copy_id = file_id + 1_000_000
            store.write_sstable(copy_id, tiles, {"created_at": file.created_at})
            assert store.sstable_path(copy_id).read_bytes() == written[file_id]
            store.delete_sstable(copy_id)
        reopened.close()
