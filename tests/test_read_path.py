"""The read-path overhaul: pruned lookups, the fused scan, and the block
cache wired into the tree.

Three layers of assurance:

* property tests that the overhauled ``get``/``scan`` (with and without a
  cache attached) stay byte-identical to a model dict, including reverse
  scans, ``limit`` truncation, and tombstone-heavy cross-level ranges;
* cache-coherence checks across flush/compaction/recovery -- every cached
  page must belong to a currently-live file, and recovery GC must never
  reuse a garbage-collected file id;
* counter/observability checks: the per-level probe/skip/serve accounting
  and the cache stats surfaced through ``read_stats`` and the inspector.
"""

import random
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CompactionStyle, baseline_config
from repro.demo.inspector import TreeInspector
from repro.lsm.tree import LSMTree
from repro.storage.filestore import FileStore

from conftest import TINY, make_acheron, make_baseline

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Tombstone-heavy op mix: two delete codes out of five, so generated
# sequences routinely bury live keys under cross-level tombstones.
heavy_delete_op = st.tuples(
    st.sampled_from([0, 1, 1, 2, 3]), st.integers(0, 120), st.integers(0, 10_000)
)


def apply_and_check(engine, ops):
    """Replay ``ops`` against the engine and a model dict, checking every
    read (point, range, reverse range, limited range) as it happens."""
    model = {}
    for code, key, payload in ops:
        if code == 0:
            engine.put(key, payload)
            model[key] = payload
        elif code == 1:
            engine.delete(key)
            model.pop(key, None)
        elif code == 2:
            assert engine.get(key) == model.get(key)
        else:
            lo, hi = key, key + (payload % 40)
            expected = sorted((k, v) for k, v in model.items() if lo <= k <= hi)
            assert list(engine.scan(lo, hi)) == expected
            assert list(engine.scan(lo, hi, reverse=True)) == expected[::-1]
            limit = 1 + payload % 7
            assert list(engine.scan(lo, hi, limit=limit)) == expected[:limit]
            assert (
                list(engine.scan(lo, hi, limit=limit, reverse=True))
                == expected[::-1][:limit]
            )
    assert dict(engine.scan(-(10**9), 10**9)) == model
    engine.tree.check_invariants()
    return model


class TestReadEquivalence:
    """get/scan results must not depend on the cache or the layout."""

    @given(st.lists(heavy_delete_op, max_size=250))
    @SETTINGS
    def test_baseline_with_cache(self, ops):
        apply_and_check(make_baseline(cache_pages=16), ops)

    @given(st.lists(heavy_delete_op, max_size=250))
    @SETTINGS
    def test_tiering_with_tiny_cache(self, ops):
        # A 2-page cache evicts constantly: admission/eviction churn must
        # never surface a stale page.
        apply_and_check(
            make_baseline(policy=CompactionStyle.TIERING, cache_pages=2), ops
        )

    @given(st.lists(heavy_delete_op, max_size=250))
    @SETTINGS
    def test_kiwi_multi_page_tiles_with_cache(self, ops):
        apply_and_check(
            make_acheron(
                delete_persistence_threshold=150, pages_per_tile=3, cache_pages=16
            ),
            ops,
        )

    @given(st.lists(heavy_delete_op, max_size=250))
    @SETTINGS
    def test_cached_engine_matches_uncached(self, ops):
        cached = make_baseline(cache_pages=8)
        uncached = make_baseline(cache_pages=0)
        for code, key, payload in ops:
            if code == 0:
                cached.put(key, payload)
                uncached.put(key, payload)
            elif code == 1:
                cached.delete(key)
                uncached.delete(key)
            elif code == 2:
                assert cached.get(key) == uncached.get(key)
            else:
                lo, hi = key, key + (payload % 40)
                assert list(cached.scan(lo, hi)) == list(uncached.scan(lo, hi))
        assert list(cached.scan(-(10**9), 10**9)) == list(
            uncached.scan(-(10**9), 10**9)
        )


class TestScanSemantics:
    def test_limit_zero_is_empty(self, baseline_engine):
        for k in range(100):
            baseline_engine.put(k, k)
        assert list(baseline_engine.scan(0, 99, limit=0)) == []
        assert list(baseline_engine.scan(0, 99, limit=0, reverse=True)) == []

    def test_limit_early_exit_matches_prefix(self, baseline_engine):
        for k in range(500):
            baseline_engine.put(k, k)
        full = list(baseline_engine.scan(100, 300))
        assert list(baseline_engine.scan(100, 300, limit=25)) == full[:25]
        assert (
            list(baseline_engine.scan(100, 300, limit=25, reverse=True))
            == full[::-1][:25]
        )

    def test_cross_level_tombstones_shadow_older_versions(self, baseline_engine):
        # Bury generation after generation, deleting every third key; the
        # flushes spread versions and tombstones across levels.
        for gen in range(4):
            for k in range(200):
                baseline_engine.put(k, f"g{gen}-{k}")
            for k in range(0, 200, 3):
                baseline_engine.delete(k)
        expected = [
            (k, f"g3-{k}") for k in range(200) if k % 3 != 0
        ]
        assert list(baseline_engine.scan(0, 199)) == expected
        assert list(baseline_engine.scan(0, 199, reverse=True)) == expected[::-1]
        for k in range(0, 200, 3):
            assert baseline_engine.get(k, default="gone") == "gone"


class TestCacheCoherence:
    def test_cached_pages_always_belong_to_live_files(self):
        engine = make_baseline(cache_pages=64)
        tree = engine.tree
        for k in range(3000):
            engine.put(k % 700, f"v{k}")
            if k % 150 == 0:
                engine.get(k % 700)  # keep the cache populated
                list(engine.scan(k % 500, k % 500 + 40))
                # Quiesce background installs (no-op serially): live files
                # and cached pages can only be compared at rest -- between
                # an install's level mutation and its invalidation sweep
                # the raw structure is legitimately mid-change.
                tree.write_barrier()
                live = {
                    f.file_id
                    for level in tree.iter_levels()
                    for run in level.runs
                    for f in run.files
                }
                cached_files = {fid for fid, _ in tree.cache}
                assert cached_files <= live, (
                    f"stale cached pages for dead files: {cached_files - live}"
                )
        assert tree.cache.invalidations > 0  # compactions actually fired

    def test_recovery_gc_invalidates_and_never_reuses_file_ids(self, tmp_path):
        config = baseline_config(cache_pages=32, **TINY)
        with LSMTree.open(config, tmp_path) as tree:
            for k in range(500):
                tree.put(k, f"v{k}")
        # Plant an orphan sstable with a high id, unreferenced by the
        # manifest -- the shape a crash between file write and manifest
        # publish leaves behind.
        store = FileStore(tmp_path)
        tiles, _ = store.read_sstable(store.list_sstable_ids()[0])
        store.write_sstable(997, tiles, {"created_at": 0})
        reopened = LSMTree.open(config, tmp_path)
        assert any("garbage-collected" in line for line in reopened.recovery_log)
        assert 997 not in store.list_sstable_ids()
        # Immutable file ids: the allocator must skip past the GC'd id so
        # no future file can alias a (file_id, page) cache key.
        for k in range(500, 1200):
            reopened.put(k, f"v{k}")
        live_ids = {
            f.file_id
            for level in reopened.iter_levels()
            for run in level.runs
            for f in run.files
        }
        assert 997 not in live_ids
        assert max(live_ids) > 997  # new files allocate past the orphan
        reopened.check_invariants()


@pytest.mark.usefixtures("serial_write_path")  # asserts schedule-exact counters
class TestReadCounters:
    def test_pruning_counters_account_for_every_run_visit(self):
        engine = make_baseline(cache_pages=32)
        for k in range(2000):
            engine.put(k, k)
        for k in range(0, 4000, 7):  # half the probes miss entirely
            engine.get(k)
        report = engine.tree.read_stats()
        levels = report["levels"]
        probes = sum(r["lookup_probes"] for r in levels)
        skips = sum(
            r["lookup_skips_range"] + r["lookup_skips_bloom"] for r in levels
        )
        serves = sum(r["lookup_serves"] for r in levels)
        assert probes > 0 and skips > 0
        assert serves <= probes
        assert all(r["lookup_cache_direct"] <= r["lookup_probes"] for r in levels)

    def test_cache_direct_counts_on_repeat_lookups(self):
        engine = make_baseline(cache_pages=64)
        for k in range(1000):
            engine.put(k, k)
        engine.flush()
        for _ in range(3):
            for k in range(0, 1000, 50):
                assert engine.get(k) == k
        levels = engine.tree.read_stats()["levels"]
        assert sum(r["lookup_cache_direct"] for r in levels) > 0

    def test_read_stats_mirrors_cache_counters(self):
        engine = make_baseline(cache_pages=16)
        for k in range(500):
            engine.put(k, k)
        for k in range(0, 500, 10):
            engine.get(k)
        engine.tree.read_stats()
        counters = engine.tree.counters
        cache = engine.tree.cache
        assert counters["cache_hits"] == cache.hits
        assert counters["cache_misses"] == cache.misses
        assert counters["cache_evictions"] == cache.evictions

    def test_scan_prunes_disjoint_runs(self):
        engine = make_baseline(cache_pages=16)
        for k in range(2000):
            engine.put(k, k)
        # A narrow scan at the top of the keyspace cannot overlap runs
        # holding only older, lower flushed ranges forever; after enough
        # scans the pruned counter must move.
        for _ in range(20):
            list(engine.scan(1990, 1999))
        assert (
            sum(r["scan_runs_pruned"] for r in engine.tree.read_stats()["levels"])
            > 0
        )


class TestObservabilitySurfaces:
    def test_inspector_tables_render(self):
        engine = make_baseline(cache_pages=16)
        for k in range(800):
            engine.put(k, k)
        for k in range(0, 800, 5):
            engine.get(k)
        list(engine.scan(100, 200))
        inspector = TreeInspector(engine)
        cache_table = inspector.cache_table()
        read_table = inspector.read_path_table()
        assert "hit rate" in cache_table
        assert "cache-direct" in read_table
        dashboard = inspector.dashboard()
        assert "cache" in dashboard

    def test_engine_stats_carry_cache_and_read_path(self):
        engine = make_baseline(cache_pages=16)
        for k in range(300):
            engine.put(k, k)
        engine.get(0)
        stats = engine.stats()
        assert stats.cache["capacity_pages"] == 16
        assert isinstance(stats.read_path, list)
        assert stats.counters["cache_hits"] == engine.tree.cache.hits


def _structure(tree):
    return [
        (level.index, [[f.file_id for f in run.files] for run in level.runs])
        for level in tree.iter_levels()
    ]


class TestModeParity:
    """Serial and concurrent trees run one descent over one snapshot shape,
    so the same reads on the same store give the same results, the same
    per-level counters and the same modeled device I/O."""

    @staticmethod
    def _build(directory, config):
        rng = random.Random(20230612)
        with LSMTree.open(config, directory, workers=1) as tree:
            tree.put_many((k, f"v{k}", k) for k in range(1200))
            for k in rng.sample(range(300, 1200), 150):
                tree.delete(k)
            # In-window rewrites of out-of-window versions: the fence
            # below shadows the rewrite, so the older version resurfaces.
            tree.put_many((k, f"w{k}", k - 600) for k in range(600, 700))
            tree.append_range_fence(0, 299)
            tree.put_many((k, f"n{k}", k) for k in range(100, 120))

    @staticmethod
    def _reads(tree):
        rng = random.Random(7)
        before = tree.disk.stats.copy()
        results = [tree.get(k) for k in (rng.randrange(-50, 1300) for _ in range(600))]
        results += [tree.get(k) for k in range(0, 320, 3)]  # fence-shadowed
        for _ in range(40):
            lo = rng.randrange(-20, 1250)
            hi = lo + rng.randrange(0, 120)
            results.append(list(tree.scan(lo, hi)))
            results.append(list(tree.scan(lo, hi, reverse=True)))
            results.append(list(tree.scan(lo, hi, limit=1 + rng.randrange(9))))
        io = tree.disk.stats.minus(before)
        return (
            results,
            tree.read_stats()["levels"],
            (io.pages_read, io.read_requests, io.modeled_us),
        )

    @pytest.mark.parametrize("hardened", [False, True])
    @pytest.mark.parametrize("pages_per_tile", [1, 8])
    def test_reads_are_identical_in_both_modes(
        self, tmp_path, pages_per_tile, hardened
    ):
        config = baseline_config(
            pages_per_tile=pages_per_tile,
            cache_pages=32,
            cache_hardened=hardened,
            **TINY,
        )
        built = tmp_path / "built"
        self._build(built, config)
        observed = {}
        for workers in (1, 4):
            directory = tmp_path / f"workers-{workers}"
            shutil.copytree(built, directory)
            tree = LSMTree.open(config, directory, workers=workers)
            try:
                tree.write_barrier()
                # Buffered versions a fence shadows: the descent must
                # continue past the memtable to the older versions below.
                tree.put_many((k, f"m{k}", 280 + k % 10) for k in range(700, 720))
                tree.append_range_fence(280, 289)
                tree.write_barrier()
                observed[workers] = (_structure(tree), self._reads(tree))
            finally:
                tree.close()
        serial, concurrent = observed[1], observed[4]
        assert serial[0] == concurrent[0]  # same store, same shape
        assert serial[1][0] == concurrent[1][0]
        assert serial[1][1] == concurrent[1][1]
        assert serial[1][2] == concurrent[1][2]
        # The store exercises what the descent must agree on.
        assert sum(row["lookup_skips_fence"] for row in serial[1][1]) > 0
        assert sum(row["lookup_serves"] for row in serial[1][1]) > 0
        assert len(serial[0]) > 1
