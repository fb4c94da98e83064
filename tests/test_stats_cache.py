"""Cache-coherence and batched-ingest equivalence properties.

The hot-path overhaul replaced recomputed statistics with incrementally
maintained counters (``Run``/``Level`` entry, tombstone, and page counts;
the tree's deepest-non-empty-level cache) and added a batched ingest path
(``put_many`` / ``apply_batch``).  These tests pin down the three contracts
the optimizations rest on:

* **coherence** -- after any operation sequence the cached counters equal a
  fresh recomputation from the immutable files;
* **equivalence** -- a batch leaves the engine in exactly the state the
  same operations applied one at a time would have (tree shape, counters,
  simulated I/O, compaction log);
* **safe skip** -- ``maintain()``'s O(1) exit is taken only where a full
  planning pass would find nothing to do.
"""

from __future__ import annotations

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_acheron, make_baseline
from repro.config import CompactionStyle

# (op_code, key): 0 = put, 1 = delete
op_strategy = st.tuples(st.integers(0, 1), st.integers(0, 150))

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _apply(engine, ops):
    for code, key in ops:
        if code == 0:
            engine.put(key, f"v{key}")
        else:
            engine.delete(key)


def _assert_cache_coherent(tree) -> None:
    """Cached counters must equal recomputation at every granularity."""
    for level in tree._levels:
        entries, tombstones, pages = level.recompute_counts()
        assert level.entry_count == entries
        assert level.tombstone_count == tombstones
        assert level.page_count == pages
        for run in level.runs:
            assert run.entry_count == sum(f.entry_count for f in run.files)
            assert run.tombstone_count == sum(
                f.tombstone_count for f in run.files
            )
            assert run.page_count == sum(f.page_count for f in run.files)
    fresh_deepest = max(
        (level.index for level in tree._levels if level.runs), default=0
    )
    assert tree.deepest_nonempty_level() == fresh_deepest


def _state(engine) -> dict:
    """Everything observable that per-op and batched ingest must agree on."""
    stats = engine.stats()
    tree = engine.tree
    return {
        "counters": stats.counters,
        "flush_count": stats.flush_count,
        "compaction_count": stats.compaction_count,
        "pages_written": stats.io.pages_written,
        "pages_read": stats.io.pages_read,
        "tick": stats.tick,
        "seqno": tree._seqno,
        "memtable": [
            (e.key, e.seqno, e.kind, e.value) for e in tree.memtable
        ],
        "levels": [
            (
                level.index,
                [[f.file_id for f in run.files] for run in level.runs],
                level.entry_count,
                level.tombstone_count,
                level.page_count,
            )
            for level in tree._levels
        ],
        "compaction_log": [
            (ev.reason, ev.source_level, ev.target_level, ev.entries_out)
            for ev in tree.compaction_log
        ],
    }


class TestCacheCoherence:
    @given(st.lists(op_strategy, max_size=400))
    @SETTINGS
    def test_baseline_leveling(self, ops):
        engine = make_baseline()
        _apply(engine, ops)
        _assert_cache_coherent(engine.tree)
        engine.tree.check_invariants()

    @given(st.lists(op_strategy, max_size=400))
    @SETTINGS
    def test_baseline_tiering(self, ops):
        engine = make_baseline(policy=CompactionStyle.TIERING)
        _apply(engine, ops)
        _assert_cache_coherent(engine.tree)
        engine.tree.check_invariants()

    @given(st.lists(op_strategy, max_size=400))
    @SETTINGS
    def test_acheron(self, ops):
        engine = make_acheron()
        _apply(engine, ops)
        _assert_cache_coherent(engine.tree)
        engine.tree.check_invariants()

    def test_coherent_after_full_compaction(self):
        engine = make_baseline()
        for k in range(500):
            engine.put(k, k)
        for k in range(0, 500, 3):
            engine.delete(k)
        engine.tree.full_compaction()
        _assert_cache_coherent(engine.tree)
        engine.tree.check_invariants()


class TestBatchEquivalence:
    """apply_batch/put_many must be indistinguishable from per-op ingest."""

    @given(st.lists(op_strategy, max_size=400), st.integers(1, 64))
    @SETTINGS
    def test_apply_batch_matches_per_op(self, ops, batch):
        per_op = make_acheron()
        _apply(per_op, ops)

        batched = make_acheron()
        batch_ops = [
            ("put", key, f"v{key}") if code == 0 else ("delete", key)
            for code, key in ops
        ]
        for start in range(0, len(batch_ops), batch):
            batched.apply_batch(batch_ops[start : start + batch])

        assert _state(batched) == _state(per_op)
        _assert_cache_coherent(batched.tree)
        batched.tree.check_invariants()

    @given(st.lists(st.integers(0, 150), max_size=300), st.integers(1, 64))
    @SETTINGS
    def test_put_many_matches_puts(self, keys, batch):
        per_op = make_baseline()
        for key in keys:
            per_op.put(key, f"v{key}")

        batched = make_baseline()
        items = [(key, f"v{key}") for key in keys]
        for start in range(0, len(items), batch):
            assert batched.put_many(items[start : start + batch]) == len(
                items[start : start + batch]
            )

        assert _state(batched) == _state(per_op)
        _assert_cache_coherent(batched.tree)

    def test_batch_rejects_unknown_op(self):
        engine = make_baseline()
        try:
            engine.apply_batch([("frob", 1)])
        except ValueError:
            pass
        else:
            raise AssertionError("unknown op kind must raise ValueError")


def _apply_with_ranges(engine, ops, method):
    for code, key, span in ops:
        if code == 0:
            engine.put(key, f"v{key}")
        elif code == 1:
            engine.delete(key)
        else:  # delete keys default to the insertion tick
            engine.delete_range(2 * key, 2 * key + span, method=method)
        yield engine.tree


def _assert_skip_is_safe(tree) -> None:
    """Where ``maintain()`` would take its O(1) exit, a full planning pass
    must find no work either."""
    if tree._maintenance_dirty or tree._fade_deadline_due():
        return
    assert tree._planner.plan(tree) is None
    if tree._fade is not None:
        assert tree._fade.plan(tree) is None


# (op_code, key, span): 0 = put, 1 = delete, 2 = delete_range; long
# streams so every example flushes and compacts several times.
range_ops_strategy = st.lists(
    st.tuples(st.sampled_from([0, 0, 0, 1, 2]), st.integers(0, 150), st.integers(0, 40)),
    min_size=100,
    max_size=300,
)


@pytest.mark.usefixtures("serial_write_path")  # maintain() runs inline
class TestMaintenanceFastPath:
    """Skipping the planner never skips a compaction: while no structural
    change is pending and no FADE deadline is due, the saturation planner
    and FADE both have nothing to plan (DESIGN.md hot-path invariant 2)."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_baseline(memtable_entries=16, entries_per_page=4),
            lambda: make_acheron(
                delete_persistence_threshold=200, memtable_entries=16, entries_per_page=4
            ),
        ],
        ids=["baseline", "acheron"],
    )
    @given(range_ops_strategy, st.sampled_from(["auto", "lazy"]))
    @SETTINGS
    def test_skip_never_skips_a_compaction(self, make, ops, method):
        for tree in _apply_with_ranges(make(), ops, method):
            _assert_skip_is_safe(tree)
