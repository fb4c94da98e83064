"""System-level property tests (hypothesis): the invariants the paper's
design rests on, checked against randomly generated operation sequences."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CompactionStyle

from conftest import make_acheron, make_baseline

# One operation: (op_code, key, payload)
#   0 = put, 1 = delete, 2 = get-check, 3 = scan-check
op_strategy = st.tuples(
    st.integers(0, 3), st.integers(0, 120), st.integers(0, 10_000)
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def apply_and_check(engine, ops):
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
    assert dict(engine.scan(-(10**9), 10**9)) == model
    engine.tree.check_invariants()
    return model


class TestEngineIsADict:
    @given(st.lists(op_strategy, max_size=300))
    @SETTINGS
    def test_baseline_leveling(self, ops):
        apply_and_check(make_baseline(), ops)

    @given(st.lists(op_strategy, max_size=300))
    @SETTINGS
    def test_baseline_tiering(self, ops):
        apply_and_check(make_baseline(policy=CompactionStyle.TIERING), ops)

    @given(st.lists(op_strategy, max_size=300))
    @SETTINGS
    def test_acheron_kiwi_leveling(self, ops):
        apply_and_check(
            make_acheron(delete_persistence_threshold=150, pages_per_tile=3), ops
        )

    @given(st.lists(op_strategy, max_size=300))
    @SETTINGS
    def test_baseline_lazy_leveling(self, ops):
        apply_and_check(
            make_baseline(policy=CompactionStyle.LAZY_LEVELING), ops
        )

    @given(st.lists(op_strategy, max_size=300))
    @SETTINGS
    def test_acheron_tiering(self, ops):
        apply_and_check(
            make_acheron(
                delete_persistence_threshold=150,
                pages_per_tile=2,
                policy=CompactionStyle.TIERING,
            ),
            ops,
        )


class TestPersistenceGuaranteeProperty:
    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 150)), max_size=400),
        st.sampled_from([120, 400, 900]),
        st.sampled_from(
            [
                CompactionStyle.LEVELING,
                CompactionStyle.TIERING,
                CompactionStyle.LAZY_LEVELING,
            ]
        ),
    )
    @SETTINGS
    def test_no_delete_outlives_d_th(self, ops, d_th, policy):
        engine = make_acheron(delete_persistence_threshold=d_th, policy=policy)
        for is_delete, key in ops:
            if is_delete:
                engine.delete(key)
            else:
                engine.put(key, key)
        engine.advance_time(d_th + 1)
        stats = engine.persistence_stats()
        assert stats.violations == 0, stats
        assert stats.compliant(), stats
        assert stats.pending == 0, stats  # after the drain everything ended


class TestSecondaryDeleteProperty:
    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=250),
        st.integers(0, 250),
        st.integers(0, 250),
    )
    @SETTINGS
    def test_kiwi_and_full_rewrite_agree(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        woven = make_acheron(delete_persistence_threshold=10**6, pages_per_tile=3)
        classic = make_baseline()
        model = {}
        for key in keys:
            woven.put(key, f"v{key}")
            classic.put(key, f"v{key}")
            model[key] = (f"v{key}", woven.clock.now() - 1)
        woven.delete_range(lo, hi, method="kiwi")
        classic.delete_range(lo, hi, method="full_rewrite")
        expected = {
            k: v for k, (v, dkey) in model.items() if not (lo <= dkey <= hi)
        }
        assert dict(woven.scan(-1, 10**9)) == expected
        assert dict(classic.scan(-1, 10**9)) == expected
        woven.tree.check_invariants()
        classic.tree.check_invariants()


class TestLazyFenceProperty:
    """The lazy fence executor is a drop-in for eager secondary deletes:
    identical logical contents before *and* after resolution, across
    compaction policies, worker counts, and shard counts -- and the fence
    record itself survives both WAL replay and manifest reopen."""

    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=200),
        st.integers(0, 250),
        st.integers(0, 250),
        st.sampled_from(
            [
                CompactionStyle.LEVELING,
                CompactionStyle.TIERING,
                CompactionStyle.LAZY_LEVELING,
            ]
        ),
    )
    @SETTINGS
    def test_eager_and_lazy_agree(self, keys, a, b, policy):
        lo, hi = min(a, b), max(a, b)
        eager = make_acheron(
            delete_persistence_threshold=10**6, pages_per_tile=3, policy=policy
        )
        lazy = make_acheron(
            delete_persistence_threshold=10**6, pages_per_tile=3, policy=policy
        )
        try:
            for key in keys:
                eager.put(key, f"v{key}")
                lazy.put(key, f"v{key}")
            eager.delete_range(lo, hi, method="eager")
            lazy.delete_range(lo, hi, method="lazy")
            # Unresolved fence vs physical rewrite: same logical contents.
            assert dict(lazy.scan(-1, 10**9)) == dict(eager.scan(-1, 10**9))
            # Writes after the fence (higher seqno) must never be shadowed.
            for key in keys[:10]:
                eager.put(key, f"w{key}")
                lazy.put(key, f"w{key}")
            assert dict(lazy.scan(-1, 10**9)) == dict(eager.scan(-1, 10**9))
            # Resolution (compaction drops shadowed entries, retires the
            # fence) must not change contents either.
            lazy.compact_all()
            assert dict(lazy.scan(-1, 10**9)) == dict(eager.scan(-1, 10**9))
            lazy.tree.check_invariants()
            eager.tree.check_invariants()
        finally:
            eager.close()
            lazy.close()

    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=120),
        st.integers(0, 250),
        st.integers(0, 250),
        st.sampled_from([1, 4]),
        st.sampled_from([1, 4]),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_eager_and_lazy_agree_workers_shards(self, keys, a, b, workers, shards):
        from repro.config import acheron_config
        from repro.core.engine import AcheronEngine
        from repro.shard import ShardedEngine

        lo, hi = min(a, b), max(a, b)
        config = acheron_config(
            delete_persistence_threshold=10**6,
            pages_per_tile=3,
            memtable_entries=64,
            entries_per_page=8,
            size_ratio=3,
        )

        def build():
            if shards > 1:
                return ShardedEngine(
                    config, shards=shards, key_space=(0, 256), workers=workers
                )
            return AcheronEngine(config, workers=workers)

        eager, lazy = build(), build()
        try:
            for key in keys:
                eager.put(key, f"v{key}")
                lazy.put(key, f"v{key}")
            eager.delete_range(lo, hi, method="eager")
            before = lazy.disk.snapshot()
            lazy.delete_range(lo, hi, method="lazy")
            if workers == 1:
                # A lazy delete is a fence append: no page moves at call
                # time (with background workers a concurrent flush may).
                call = lazy.disk.delta_since(before)
                assert call.pages_read == call.pages_written == 0
            assert dict(lazy.scan(-1, 10**9)) == dict(eager.scan(-1, 10**9))
            lazy.compact_all()
            assert dict(lazy.scan(-1, 10**9)) == dict(eager.scan(-1, 10**9))
        finally:
            eager.close()
            lazy.close()

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 80), st.integers(0, 10_000)),
            max_size=120,
        ),
        windows=st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 60)),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_fence_records_survive_crash_and_reopen(
        self, tmp_path_factory, ops, windows
    ):
        """A fence is one WAL record: a crash-style abandon must replay it,
        and a clean close must carry it through the manifest."""
        import shutil
        from repro.config import acheron_config
        from repro.lsm.tree import LSMTree

        directory = tmp_path_factory.mktemp("fence-prop")
        try:
            config = acheron_config(
                delete_persistence_threshold=10**6,
                pages_per_tile=2,
                memtable_entries=16,
                entries_per_page=4,
                size_ratio=3,
            )
            tree = LSMTree.open(config, directory)
            for code, key, payload in ops:
                if code == 1:
                    tree.delete(key)
                else:
                    tree.put(key, payload)
            for start, width in windows:
                tree.append_range_fence(start, start + width)
            expected = dict(tree.scan(-1, 10**9))
            recorded = {(f.lo, f.hi, f.seqno) for f in tree.fences}

            # Crash: abandon the handle; reopen replays fences from the WAL.
            tree._wal.close()
            tree = LSMTree.open(config, directory)
            assert dict(tree.scan(-1, 10**9)) == expected
            assert {(f.lo, f.hi, f.seqno) for f in tree.fences} == recorded

            # Clean close: fences ride the manifest (close may flush and
            # retire fully-resolved fences, so survivors are a subset).
            tree.close()
            tree = LSMTree.open(config, directory)
            assert dict(tree.scan(-1, 10**9)) == expected
            assert {(f.lo, f.hi, f.seqno) for f in tree.fences} <= recorded
            tree.check_invariants()
            tree.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class TestDurabilityProperty:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 80), st.integers(0, 10_000)),
            max_size=150,
        ),
        restart_points=st.lists(st.integers(1, 149), max_size=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_restarts_never_lose_acknowledged_writes(
        self, tmp_path_factory, ops, restart_points
    ):
        """Close-less restarts (crash simulation) at arbitrary points must
        preserve every acknowledged put/delete exactly."""
        import shutil
        from repro.config import acheron_config
        from repro.lsm.tree import LSMTree

        directory = tmp_path_factory.mktemp("durable-prop")
        try:
            config = acheron_config(
                delete_persistence_threshold=200,
                pages_per_tile=2,
                memtable_entries=16,
                entries_per_page=4,
                size_ratio=3,
            )
            restarts = set(restart_points)
            tree = LSMTree.open(config, directory)
            model = {}
            for i, (code, key, payload) in enumerate(ops):
                if i in restarts:
                    # Crash: abandon the handle without close() or flush().
                    tree._wal.close()
                    tree = LSMTree.open(config, directory)
                    assert dict(tree.scan(-1, 10**9)) == model, f"state lost at op {i}"
                if code == 0 or code == 2:
                    tree.put(key, payload)
                    model[key] = payload
                elif code == 1:
                    tree.delete(key)
                    model.pop(key, None)
                else:
                    assert tree.get(key) == model.get(key)
            tree._wal.close()
            final = LSMTree.open(config, directory)
            assert dict(final.scan(-1, 10**9)) == model
            final.check_invariants()
            final.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class TestGranularityProperty:
    @given(st.lists(op_strategy, max_size=250))
    @SETTINGS
    def test_level_granularity_is_a_dict_too(self, ops):
        from repro.config import CompactionGranularity

        apply_and_check(
            make_baseline(granularity=CompactionGranularity.LEVEL), ops
        )
