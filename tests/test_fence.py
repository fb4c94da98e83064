"""The range-tombstone index against brute-force oracles, and its work pins.

``RangeTombstoneIndex`` answers every shadow question of a tree with
lazy range deletes.  The property tests hold its per-entry ``check`` and
its whole-file ``fully_shadows`` to flat-list oracles that ask every
fence, over nested, overlapping, adjacent and single-key fences, at and
around every fence boundary (``hi + 1`` and non-integer delete keys
included).  The work pins count calls, never wall time: lookups rebuild
no index and walk each file's fences once per fence set, and a
retirement audit skips a buffer its bounds rule out, also while a
writer inserts concurrently.
"""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import AcheronEngine
from repro.config import acheron_config
from repro.lsm.entry import Entry, EntryKind
from repro.lsm.fence import NO_FENCES, RangeFence, RangeTombstoneIndex
from repro.lsm.memtable import Memtable
from repro.lsm.run import SSTableFile
from repro.shard.engine import ShardedEngine


# ----------------------------------------------------------------------
# oracles: ask every fence
# ----------------------------------------------------------------------
def oracle_shadowed(fences, entry: Entry) -> bool:
    return entry.is_put and any(
        entry.seqno < f.seqno and f.lo <= entry.delete_key <= f.hi for f in fences
    )


def oracle_fully_shadows(fences, file) -> bool:
    return not file.tombstone_count and any(
        f.lo <= file.min_delete_key
        and file.max_delete_key <= f.hi
        and file.max_seqno < f.seqno
        for f in fences
    )


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: (lo, width) on a small axis: collisions make nesting, overlap,
#: adjacency (hi + 1 == next lo) and ``lo == hi`` common.
windows = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 6)), min_size=0, max_size=12
)


def make_fences(spans, step: int = 10) -> list[RangeFence]:
    """Fences in install order: each newer (higher seqno) than the last."""
    return [
        RangeFence(lo, lo + width, step * (i + 1), i)
        for i, (lo, width) in enumerate(spans)
    ]


def probe_entries(fences) -> list[Entry]:
    """PUTs and tombstones at every delete key around every boundary,
    at seqnos just below, at and above every fence's."""
    seqnos = {0, 1}
    for f in fences:
        seqnos.update((f.seqno - 1, f.seqno, f.seqno + 1))
    keys = [k / 2 for k in range(-2, 2 * 32)]  # every integer and every half
    out = []
    for dk in keys:
        for seq in seqnos:
            out.append(Entry.put(("k", dk, seq), None, seq, delete_key=dk))
            out.append(
                Entry(("t", dk, seq), seq, EntryKind.TOMBSTONE, None, dk)
            )
    return out


def assert_matches_oracle(index: RangeTombstoneIndex, fences) -> None:
    assert list(index) == list(fences)  # iteration: install order
    assert len(index) == len(fences) and bool(index) == bool(fences)
    if not fences:
        assert index.check is None
        return
    for entry in probe_entries(fences):
        assert index.check(entry) == oracle_shadowed(fences, entry), (entry, fences)


def fake_file(lo, width, newest, tombstones):
    return SimpleNamespace(
        tombstone_count=tombstones,
        min_delete_key=lo,
        max_delete_key=lo + width,
        max_seqno=newest,
        shadow_memo=None,
    )


class TestIndexEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(windows)
    def test_check_matches_flat_oracle(self, spans):
        fences = make_fences(spans)
        assert_matches_oracle(RangeTombstoneIndex(fences), fences)

    @settings(max_examples=200, deadline=None)
    @given(windows)
    def test_painted_installs_equal_a_sweep_build(self, spans):
        fences = make_fences(spans)
        index = NO_FENCES
        for fence in fences:
            index = index.install(fence)
        assert_matches_oracle(index, fences)
        # Structure, not just answers: painting never leaves more
        # endpoints than the sweep keeps.
        assert len(index._points) <= len(RangeTombstoneIndex(fences)._points)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("install"), st.integers(0, 24), st.integers(0, 6)),
                st.tuples(st.just("retire"), st.integers(0, 11), st.integers(0, 0)),
            ),
            max_size=24,
        )
    )
    def test_installs_and_retires_equal_a_from_scratch_build(self, ops):
        index, live, seqno = NO_FENCES, [], 0
        for op, a, b in ops:
            if op == "install":
                seqno += 7
                fence = RangeFence(a, a + b, seqno, seqno)
                index = index.install(fence)
                live.append(fence)
            elif live:
                live.pop(a % len(live))
                index = RangeTombstoneIndex(live)
            assert_matches_oracle(index, live)
            scratch = RangeTombstoneIndex(live)
            for entry in probe_entries(live):
                assert index.check is None or index.check(entry) == scratch.check(entry)

    @settings(max_examples=100, deadline=None)
    @given(windows, st.integers(0, 11), st.integers(0, 24), st.integers(0, 6))
    def test_out_of_order_install_rebuilds_exactly(self, spans, pick, lo, width):
        """Recovery may restore a fence older than a live one (WAL copy
        of a fence the manifest already retired)."""
        fences = make_fences(spans)
        old = RangeFence(lo, lo + width, 5 + 10 * (pick % (len(fences) + 1)), 0)
        index = RangeTombstoneIndex(fences).install(old)
        assert_matches_oracle(index, fences + [old])

    @settings(max_examples=200, deadline=None)
    @given(
        windows,
        st.integers(-1, 30),
        st.integers(0, 8),
        st.integers(0, 130),
        st.integers(0, 1),
    )
    def test_fully_shadows_matches_flat_oracle(self, spans, lo, width, newest, tombs):
        fences = make_fences(spans)
        index = RangeTombstoneIndex(fences)
        file = fake_file(lo, width, newest, tombs)
        expected = oracle_fully_shadows(fences, file)
        assert index.fully_shadows(file) == expected
        assert index.fully_shadows(file) == expected  # memo hit
        assert file.shadow_memo == (index.token, expected)

    def test_boundaries_by_hand(self):
        fences = make_fences([(3, 2), (5, 0), (6, 3)])  # [3,5] [5,5] [6,9]
        index = RangeTombstoneIndex(fences)

        def shadowed(dk, seq=0):
            return index.check(Entry.put(1, None, seq, delete_key=dk))

        assert [shadowed(dk) for dk in (2, 3, 5, 6, 9, 10)] == [
            False, True, True, True, True, False,
        ]
        assert shadowed(5.5) is False  # between adjacent integer fences
        assert shadowed(9.5) is False  # just past hi, not up to hi + 1
        assert shadowed(4, seq=10) is False  # at the fence's own seqno
        assert shadowed(5, seq=15) is True  # [5,5] (seq 20) is newer
        assert shadowed(5, seq=20) is False  # no fence over 5 above seq 20
        tombstone = Entry(1, 0, EntryKind.TOMBSTONE, None, 4)
        assert index.check(tombstone) is False


# ----------------------------------------------------------------------
# work pins on a real tree (call counts, no wall clock)
# ----------------------------------------------------------------------
FENCES = 2_000


def fenced_tree():
    """An in-memory tree with one flushed file per 64 keys and 2,000
    live point fences, none of which covers a whole file."""
    engine = AcheronEngine.acheron(
        delete_persistence_threshold=10**9,
        memtable_entries=64,
        entries_per_page=8,
        size_ratio=1_000,
        workers=1,
    )
    tree = engine.tree
    for k in range(640):
        tree.put(k, k, delete_key=10 * k)
    tree.flush()
    # Point fences on delete keys no entry carries: nothing is shadowed,
    # so nothing resolves, and no file is fully shadowed.
    for i in range(FENCES):
        tree.append_range_fence(10 * i + 5, 10 * i + 5)
    assert len(tree.fences) == FENCES
    return engine, tree


class TestWorkPins:
    def test_gets_rebuild_nothing_and_walk_each_file_once_per_index(
        self, monkeypatch
    ):
        engine, tree = fenced_tree()
        builds = []
        assemble = RangeTombstoneIndex._assemble
        monkeypatch.setattr(
            RangeTombstoneIndex,
            "_assemble",
            lambda self, *a: (builds.append(1), assemble(self, *a))[1],
        )
        slot = SSTableFile.__dict__["shadow_memo"]
        walks: dict[tuple[int, int], int] = {}

        def record(file, value):
            if value is not None:
                key = (file.file_id, value[0])
                walks[key] = walks.get(key, 0) + 1
            slot.__set__(file, value)

        monkeypatch.setattr(
            SSTableFile, "shadow_memo", property(slot.__get__, record)
        )
        for i in range(1_000):
            assert tree.get(i % 700) == (i % 700 if i % 700 < 640 else None)
        assert builds == []
        assert walks, "the lookups never asked fully_shadows"
        assert max(walks.values()) == 1
        engine.close()

    def test_audit_of_fences_older_than_the_buffer_walks_no_entry(self):
        engine, tree = fenced_tree()
        for k in range(640, 680):  # buffered, all newer than every fence
            tree.put(k, k, delete_key=10 * (k - 640) + 5)
        index = tree.fences
        walked = []
        check = index.check
        index.check = lambda entry: (walked.append(entry), check(entry))[1]
        assert tree._buffered_shadowers() == set()
        assert walked == []
        # The bounds only skip work: a buffered put a newer fence shadows
        # is still found.
        tree.put(10**6, "x", delete_key=10**6)
        fence = tree.append_range_fence(10**6, 10**6)
        assert tree._buffered_shadowers() == {fence.seqno}
        engine.close()

    def test_audit_races_a_writer_safely(self):
        """Background audits read the active memtable's bounds while the
        writer inserts (and rotates) without a shared lock: every audit
        must still find the fence that shadows an older buffered put, and
        never count one of the writer's newer puts."""
        engine = AcheronEngine.acheron(
            delete_persistence_threshold=10**9, memtable_entries=10**6, workers=1
        )
        tree = engine.tree
        shadowed = Entry.put(-1, None, 1, delete_key=50)
        fence = RangeFence(40, 60, 2, 0)
        tree._install_fence(fence)
        tree.memtable = Memtable(64)
        tree.memtable.add(shadowed)
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            seqno = 10
            try:
                while not stop.is_set():
                    memtable = Memtable(64)  # a rotation: fresh bounds
                    memtable.add(shadowed)
                    tree.memtable = memtable
                    for dk in range(100, -1, -5):  # lowers the key bound
                        seqno += 1
                        memtable.add(Entry.put(seqno, None, seqno, delete_key=dk))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def auditor():
            try:
                while not stop.is_set():
                    assert tree._buffered_shadowers() == {fence.seqno}
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=auditor) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        engine.close()

    def test_fully_shadows_memo_is_keyed_on_the_index(self):
        """A memo that outlives its fence set would keep probing a file
        a newer fence covers whole: the skip must follow the fence set."""
        engine = AcheronEngine.acheron(
            delete_persistence_threshold=10**9,
            memtable_entries=64,
            entries_per_page=8,
            workers=1,
        )
        tree = engine.tree
        for k in range(32):
            tree.put(k, k, delete_key=100 + k)
        tree.flush()
        tree.append_range_fence(0, 10)  # live, but covers no file
        level = tree.level(1)
        assert tree.get(5) == 5
        skips = level.lookup_skips_fence
        tree.append_range_fence(100, 131)  # covers the whole file
        assert tree.get(5) is None
        assert level.lookup_skips_fence == skips + 1
        engine.close()


# ----------------------------------------------------------------------
# compliance: an overdue fence is a compliance failure
# ----------------------------------------------------------------------
class TestOverdueFenceCompliance:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_overdue_fence_is_not_compliant(self, shards):
        if shards == 1:
            engine = AcheronEngine.acheron(
                delete_persistence_threshold=100, memtable_entries=64, workers=1
            )
        else:
            config = acheron_config(
                delete_persistence_threshold=100, memtable_entries=64
            )
            engine = ShardedEngine(
                config, shards=shards, key_space=(0, 40), workers=1
            )
        for k in range(40):
            engine.put(k, k, delete_key=k)
        engine.delete_range(0, 39, method="lazy")
        report = engine.compliance_report()
        assert report["fences_within_threshold"] is True
        assert report["compliant"] is True
        # Let the fence age past D_th with no maintenance to resolve it.
        trees = [engine.tree] if shards == 1 else [s.tree for s in engine.shards]
        for tree in trees:
            tree.clock.advance_to(tree.clock.now() + 1_000)
        report = engine.compliance_report()
        assert report["fences_within_threshold"] is False
        assert report["deadline_violations"] == 0  # no point delete is late
        assert report["compliant"] is False
        engine.close()
