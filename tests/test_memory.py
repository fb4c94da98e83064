"""The adaptive memory governor: budget ledger, live resizes, arbitration.

Four contracts, mirroring DESIGN.md ("Adaptive memory governor"):

* **conservation** -- however the governor is driven (the hypothesis
  suite throws arbitrary signal sequences at it), the per-shard
  allocations never exceed the fixed global pool and never violate the
  floors;
* **identity when off** -- ``memory_governor=None`` engines expose no
  memory section and a governed engine's *contents* are bit-identical to
  an unarmed one's over the same stream (arbitration moves memory, never
  data);
* **coherence under readers** -- ``BlockCache.resize`` re-shards under
  live lock-free readers without a torn lookup, and a governed sharded
  engine under the background write path recovers exact contents after a
  ``write_barrier`` quiesce;
* **convergence on skew** -- a hot/cold-skewed stream ends with the hot
  shard holding strictly more cache than every cold shard.
"""

from __future__ import annotations

import threading
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import baseline_config
from repro.errors import ConfigError
from repro.memory import MemoryBudget, MemoryGovernor, MemoryGovernorConfig
from repro.shard import ShardedEngine
from repro.storage.cache import BlockCache


def make_sharded(shards=4, governor=None, **overrides):
    scale = {
        "memtable_entries": 64,
        "entries_per_page": 8,
        "size_ratio": 3,
        "cache_pages": 8,
    }
    scale.update(overrides)
    return ShardedEngine(
        baseline_config(**scale),
        shards=shards,
        key_space=(0, 4096),
        memory_governor=governor,
    )


# ---------------------------------------------------------------------------
# config + ledger basics
# ---------------------------------------------------------------------------
class TestGovernorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_ops": 0},
            {"min_window_ops": -1},
            {"step_fraction": 0.0},
            {"step_fraction": 1.5},
            {"pool_shift_fraction": -0.1},
            {"min_cache_pages": -1},
            {"min_memtable_entries": 0},
            {"tombstone_discount": 2.0},
            {"write_amplification": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MemoryGovernorConfig(**kwargs)

    def test_defaults_valid(self):
        MemoryGovernorConfig()  # does not raise


class TestMemoryBudget:
    def test_from_config_freezes_the_pool(self):
        config = baseline_config(
            memtable_entries=64, cache_pages=8, entries_per_page=8
        )
        budget = MemoryBudget.from_config(config, 4)
        assert budget.memtable_entries == [64] * 4
        assert budget.cache_pages == [8] * 4
        assert budget.total_units == 4 * (64 + 8 * 8)
        assert budget.remaining_units() == 0
        budget.check()

    def test_overcommit_raises(self):
        budget = MemoryBudget(2, 64, 8, 8)
        budget.memtable_entries[0] = 64 + 8 * 8 + 1  # eat shard 1's pool + 1
        budget.cache_pages[1] = 8
        with pytest.raises(AssertionError, match="overcommitted"):
            budget.set(1, 64, 8)

    def test_set_within_pool_ok(self):
        budget = MemoryBudget(2, 64, 8, 8)
        budget.set(1, 28, 6)  # shrink the donor first...
        budget.set(0, 100, 10)  # ...then grow: 100+28 + (10+6)*8 = 256
        assert budget.used_units() == budget.total_units

    def test_rebind_recomputes_pool_and_shaves(self):
        budget = MemoryBudget(2, 64, 8, 8)
        # A split: three live shards, one grown well past its default.
        budget.rebind([(64, 40), (64, 8), (64, 8)])
        assert budget.shard_count == 3
        assert budget.total_units == 3 * (64 + 8 * 8)
        budget.check()  # the shave brought it back under the pool

    def test_to_dict_round_trip_fields(self):
        budget = MemoryBudget(2, 64, 8, 8)
        d = budget.to_dict()
        assert d["total_units"] == budget.total_units
        assert d["memtable_entries"] == [64, 64]
        assert d["cache_pages"] == [8, 8]


# ---------------------------------------------------------------------------
# conservation: the hypothesis suite
# ---------------------------------------------------------------------------
window_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(0, 2_000), min_size=4, max_size=4),  # writes
        st.lists(st.integers(0, 5_000), min_size=4, max_size=4),  # hit incs
        st.lists(st.integers(0, 5_000), min_size=4, max_size=4),  # miss incs
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),  # tomb density
    ),
    min_size=1,
    max_size=12,
)


class TestConservation:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(windows=window_strategy)
    def test_budget_sum_invariant_over_any_decision_sequence(self, windows):
        governor = MemoryGovernor(
            MemoryGovernorConfig(window_ops=64, min_window_ops=0)
        )
        governor.bind(MemoryBudget(4, 64, 8, 8))
        budget = governor.budget
        floor_entries = min(governor.config.min_memtable_entries, 64)
        hits = [0] * 4
        misses = [0] * 4
        for writes, hit_incs, miss_incs, tombs in windows:
            for i, count in enumerate(writes):
                if count:
                    governor.note_writes(i, count)
            for i in range(4):
                hits[i] += hit_incs[i]
                misses[i] += miss_incs[i]
            signals = {
                i: {
                    "hits": hits[i],
                    "misses": misses[i],
                    "memtable_fill": 0.5,
                    "tombstone_density": tombs[i],
                }
                for i in range(4)
            }
            decisions = governor.evaluate(signals)
            budget.check()  # the invariant under test
            assert budget.used_units() <= budget.total_units
            assert all(e >= max(1, floor_entries) for e in budget.memtable_entries)
            assert all(p >= 0 for p in budget.cache_pages)
            for decision in decisions:
                assert decision["memtable_entries"] >= 1
                assert decision["cache_pages"] >= 0

    def test_skipped_window_makes_no_decision(self):
        governor = MemoryGovernor(
            MemoryGovernorConfig(window_ops=64, min_window_ops=64)
        )
        governor.bind(MemoryBudget(2, 64, 8, 8))
        governor.note_writes(0, 10)  # a trickle, below min_window_ops
        assert governor.evaluate({}) == []
        assert governor.budget.memtable_entries == [64, 64]


# ---------------------------------------------------------------------------
# BlockCache.resize
# ---------------------------------------------------------------------------
class TestCacheResize:
    def test_resize_recomputes_shard_layout(self):
        cache = BlockCache(16)
        assert cache.shard_count == 1
        cache.resize(600)  # crosses _SHARD_THRESHOLD
        assert cache.shard_count == 8
        assert sum(s.capacity for s in cache._shards) == 600
        cache.resize(8)
        assert cache.shard_count == 1
        assert sum(s.capacity for s in cache._shards) == 8
        assert cache.resizes == 2

    def test_grow_preserves_contents(self):
        cache = BlockCache(16)
        for i in range(16):
            cache.put("f", i, f"p{i}")
        dropped = cache.resize(600)
        assert dropped == 0
        for i in range(16):
            assert cache.get("f", i) == f"p{i}"

    def test_shrink_evicts_down_to_capacity(self):
        cache = BlockCache(600)
        for i in range(600):
            cache.put("f", i, f"p{i}")
        cache.resize(4)
        assert len(cache) <= 4
        survivors = sum(1 for i in range(600) if ("f", i) in cache)
        assert survivors == len(cache)

    def test_resize_to_zero_disables_then_reenables(self):
        cache = BlockCache(8)
        cache.put("f", 0, "a")
        cache.resize(0)
        assert len(cache) == 0
        cache.put("f", 1, "b")
        assert len(cache) == 0  # capacity-0 cache admits nothing
        cache.resize(8)
        cache.put("f", 2, "c")
        assert cache.get("f", 2) == "c"

    def test_resize_drops_retired_files(self):
        cache = BlockCache(16)
        cache.put("f1", 0, "a")
        cache.put("f2", 0, "b")
        cache.invalidate_file("f1")
        cache.put("f1", 1, "late")  # rejected: f1 is retired
        cache.resize(600)
        assert ("f1", 0) not in cache
        assert ("f1", 1) not in cache
        assert cache.get("f2", 0) == "b"

    def test_resize_same_capacity_is_a_no_op(self):
        cache = BlockCache(16)
        cache.put("f", 0, "a")
        assert cache.resize(16) == 0
        assert cache.resizes == 0
        assert cache.get("f", 0) == "a"

    def test_negative_resize_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(8).resize(-1)

    def test_stats_counters_monotonic_across_resize(self):
        cache = BlockCache(16)
        for i in range(20):
            cache.put("f", i, i)
        cache.get("f", 19)
        cache.get("f", 999)  # miss
        hits, misses = cache.hits, cache.misses
        evictions = cache.stats()["evictions"]
        cache.resize(700)
        assert cache.hits == hits
        assert cache.misses == misses
        assert cache.stats()["evictions"] >= evictions

    def test_resize_under_concurrent_readers(self):
        # The published (_shards, _mask) pair swaps while reader threads
        # run the lock-free route: no torn lookup may raise or return a
        # foreign page.
        cache = BlockCache(64)
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn(tid: int) -> None:
            rng = Random(tid)
            try:
                while not stop.is_set():
                    file_id = rng.randrange(4)
                    page = rng.randrange(256)
                    if rng.random() < 0.5:
                        cache.put(file_id, page, (file_id, page))
                    else:
                        got = cache.get(file_id, page)
                        assert got is None or got == (file_id, page)
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        try:
            rng = Random(99)
            for _ in range(120):
                cache.resize(rng.choice([4, 32, 128, 600, 1024]))
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors, errors[0]
        assert cache.resizes > 0  # same-capacity draws are no-ops


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------
def skewed_stream(n, seed=7):
    """80% of traffic to the first quarter of the key space (shard 0)."""
    rng = Random(seed)
    ops = []
    for i in range(n):
        if rng.random() < 0.8:
            key = rng.randrange(1024)
        else:
            key = 1024 + rng.randrange(3072)
        ops.append((key, f"v{i}"))
    return ops


class TestGovernedEngine:
    def test_governor_off_by_default_and_stats_empty(self):
        engine = make_sharded()
        try:
            engine.put(1, "a")
            stats = engine.stats()
            assert stats.memory is None
            assert stats.to_dict()["memory"] == {}
        finally:
            engine.close()

    def test_requires_writable_engine(self, tmp_path):
        engine = make_sharded()
        engine.close()
        root = str(tmp_path / "store")
        engine = ShardedEngine(
            baseline_config(memtable_entries=64, entries_per_page=8),
            directory=root,
            shards=2,
            key_space=(0, 4096),
        )
        engine.put(1, "a")
        engine.close()
        with pytest.raises(ConfigError):
            ShardedEngine(
                None,
                directory=root,
                read_only=True,
                memory_governor=True,
            )

    def test_governed_contents_identical_to_static(self):
        ops = skewed_stream(4_000)
        reads = [op[0] for op in skewed_stream(1_000, seed=13)]
        digests = {}
        for arm, governor in (
            ("static", None),
            ("adaptive", MemoryGovernorConfig(window_ops=256)),
        ):
            engine = make_sharded(governor=governor)
            try:
                for key, value in ops:
                    engine.put(key, value)
                for key in reads:
                    engine.get(key)
                engine.write_barrier()
                digests[arm] = list(engine.scan(0, 4096))
                engine.verify_invariants()
            finally:
                engine.close()
        assert digests["adaptive"] == digests["static"]

    @pytest.mark.usefixtures("serial_write_path")  # modeled I/O is schedule-exact
    def test_governed_beats_static_in_modeled_io_and_p99_get(self):
        """The governor's dividend on a hot/cold skew.  Shard 0 takes 80 %
        of the writes and every hot read; its 2,048-key working set is
        twice one shard's static cache, so the static split thrashes while
        three cold caches idle.  The governed arm must spend less total
        modeled device time *and* pay a cheaper p99 get on a
        post-convergence probe, with identical contents."""
        rng = Random(11)
        hot_keys, key_space, cold_lo = 2_048, 16_384, 4_096
        script, live_cold = [], []
        for _ in range(11):
            writes = []
            for _ in range(512):
                if rng.random() < 0.8:
                    key = rng.randrange(hot_keys)
                    writes.append(("put", key, f"v{key}"))
                elif live_cold and rng.random() < 0.15:
                    writes.append(("delete", live_cold[rng.randrange(len(live_cold))]))
                else:
                    key = cold_lo + rng.randrange(key_space - cold_lo)
                    live_cold.append(key)
                    writes.append(("put", key, f"v{key}"))
            reads = [rng.randrange(hot_keys) for _ in range(384)] + [
                cold_lo + rng.randrange(key_space - cold_lo) for _ in range(32)
            ]
            script.append((writes, reads))
        probe = [rng.randrange(hot_keys) for _ in range(2_048)]
        governor = MemoryGovernorConfig(
            window_ops=512, min_window_ops=256, min_cache_pages=2,
            min_memtable_entries=128,
        )
        arms = {}
        for arm, cfg in (("static", None), ("governed", governor)):
            engine = ShardedEngine(
                baseline_config(
                    memtable_entries=512, entries_per_page=32, size_ratio=4,
                    cache_pages=32,
                ),
                shards=4,
                key_space=(0, key_space),
                memory_governor=cfg,
            )
            try:
                for writes, reads in script:
                    engine.apply_batch(writes)
                    for key in reads:
                        engine.get(key)
                engine.write_barrier()
                io = engine.disk.stats
                costs = []
                for key in probe:
                    before = io.modeled_us
                    engine.get(key)
                    costs.append(io.modeled_us - before)
                costs.sort()
                arms[arm] = (
                    io.modeled_us,
                    costs[int(len(costs) * 0.99)],
                    list(engine.scan(0, key_space)),
                )
            finally:
                engine.close()
        static_us, static_p99, static_rows = arms["static"]
        governed_us, governed_p99, governed_rows = arms["governed"]
        assert governed_rows == static_rows
        # Measured at this shape: 8.3x less modeled I/O, p99 get 98 -> 0 us.
        assert governed_us * 4 < static_us
        assert governed_p99 < static_p99

    def test_hot_shard_converges_to_more_cache(self):
        governor = MemoryGovernorConfig(window_ops=256, min_cache_pages=1)
        engine = make_sharded(governor=governor)
        try:
            rng = Random(5)
            # 16 pages of hot working set at this scale (epp=8): big enough
            # that one shard's static 8 pages thrash, small enough that the
            # governed pool can actually cover it -- the governor only
            # grows a cache whose demonstrated hit rate proves the stream
            # is cacheable.  The hot keys are written once and flushed so
            # reads on them hit *pages*, not the memtable: a memtable-
            # resident working set gives the cache nothing to convert and
            # the governor (correctly) routes the budget to the buffers.
            hot_keys = list(range(0, 128))
            for key in hot_keys:
                engine.put(key, f"h{key}")
            engine.flush()
            for i in range(6_000):
                engine.put(1024 + rng.randrange(3072), f"v{i}")
                engine.get(hot_keys[rng.randrange(len(hot_keys))])
            engine.write_barrier()
            stats = engine.stats()
            assert stats.memory is not None
            assert stats.memory["windows_evaluated"] > 0
            assert stats.memory["decisions"] > 0
            hot = engine.shards[0].tree.cache.capacity
            cold = [s.tree.cache.capacity for s in engine.shards[1:]]
            assert all(hot > c for c in cold), (hot, cold)
            # The live seams track the ledger exactly.
            budget = stats.memory["budget"]
            assert budget["cache_pages"] == [
                s.tree.cache.capacity for s in engine.shards
            ]
            assert budget["memtable_entries"] == [
                s.tree.memtable_budget for s in engine.shards
            ]
            assert budget["used_units"] <= budget["total_units"]
        finally:
            engine.close()

    def test_governed_engine_under_background_workers(self, monkeypatch):
        # REPRO_WORKERS=4 engines apply decisions on the router thread
        # while worker threads flush and compact; a write_barrier quiesce
        # must still recover exact contents.
        monkeypatch.setenv("REPRO_WORKERS", "4")
        governor = MemoryGovernorConfig(window_ops=128)
        engine = make_sharded(governor=governor)
        try:
            rng = Random(3)
            model = {}
            for i in range(4_000):
                key = rng.randrange(1024) if rng.random() < 0.8 else rng.randrange(4096)
                if rng.random() < 0.1:
                    engine.delete(key)
                    model.pop(key, None)
                else:
                    engine.put(key, f"v{i}")
                    model[key] = f"v{i}"
                if i % 3 == 0:
                    engine.get(rng.randrange(1024))
            engine.write_barrier()
            assert dict(engine.scan(0, 4096)) == model
            engine.verify_invariants()
        finally:
            engine.close()

    def test_budgets_reset_to_config_defaults_on_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        config = baseline_config(
            memtable_entries=64, entries_per_page=8, cache_pages=8
        )
        governor = MemoryGovernorConfig(window_ops=128)
        engine = ShardedEngine(
            config,
            directory=root,
            shards=4,
            key_space=(0, 4096),
            memory_governor=governor,
        )
        for key, value in skewed_stream(2_000):
            engine.put(key, value)
            engine.get(key)
        assert engine.stats().memory["windows_evaluated"] > 0
        engine.close()
        reopened = ShardedEngine(None, directory=root)
        try:
            for shard in reopened.shards:
                assert shard.tree.memtable_budget == 64
                assert shard.tree.cache.capacity == 8
            assert reopened.stats().memory is None  # governor is per-open
        finally:
            reopened.close()

    def test_set_memtable_budget_validates(self):
        engine = make_sharded(shards=2)
        try:
            with pytest.raises(ValueError):
                engine.shards[0].tree.set_memtable_budget(0)
        finally:
            engine.close()
