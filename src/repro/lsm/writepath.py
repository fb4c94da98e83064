"""The concurrent write path: pipelined flush, parallel compaction, backpressure.

Serially, every flush and every compaction runs inline on the ingest
thread: a ``put`` that fills the memtable pays for the whole flush *and*
the merge cascade it triggers before it returns.  This module moves that
work behind the ingest thread:

* **Pipelined flush** -- a full memtable is *rotated* into an immutable
  queue (``frozen``, newest first) and replaced with a fresh one; a single
  background flush worker drains the queue.  Writers only block when the
  queue hits its depth bound.  The worker flushes the *whole* queue as one
  job, merging the frozen memtables newest-wins before building files --
  so a backed-up queue costs one merged flush, not K serial ones.
* **Parallel compaction** -- a pump plans tasks with the existing
  planner/FADE scheduler, but filtered by the set of *reserved* levels:
  every in-flight job owns ``task.involved_levels``, so concurrent merges
  are always level-disjoint and FADE's expiry priority is preserved among
  the non-busy levels.  The expensive merge phase
  (:func:`~repro.lsm.compaction.merge_task`) runs lock-free on a bounded
  worker pool; the install phase
  (:func:`~repro.lsm.compaction.install_task`) and all planning run under
  one structure lock.
* **Published snapshots** -- after every structural install the controller
  rebuilds ``published``: an immutable ``((level, (run, ...)), ...)``
  tuple.  Readers grab one reference (a single atomic load under the GIL)
  and see a complete, consistent tree version; a half-installed level is
  never observable.  Stale snapshots stay valid because runs, files, and
  pages are immutable and file ids are never reused.
* **Backpressure** -- rotation applies a soft delay (a real sleep, which
  also yields the interpreter to the background workers) once the frozen
  queue or level 1 pass their soft thresholds, and a hard stall (condition
  wait) at the hard bounds.  Both are counted and timed.

Durability notes: writers append to the WAL *before* rotating, so every
acknowledged write is durable the moment the call returns.  The WAL is
**not** truncated per background flush (newer acknowledged entries still
live only in the log); recovery relies on the ``flushed_seqno`` replay
filter, and the log is truncated only at full quiesce (``flush()`` /
``close()``).  A worker exception -- including an injected
:class:`~repro.storage.faults.SimulatedCrash` -- is captured as the
*background error* and re-raised on the next write, barrier, or close
(the RocksDB ``bg_error`` discipline), so the crash matrix sees faults
fired inside workers exactly like inline ones.

Determinism: the controller only exists for ``workers > 1``.  With
``workers=1`` (the default) the tree takes the untouched serial code
paths, bit-identical to the pre-concurrency engine.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from operator import attrgetter
from time import perf_counter, sleep
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.filters.bloom import key_hash_pair
from repro.lsm.compaction import execute_task, install_task, merge_task
from repro.lsm.entry import Entry, EntryKind
from repro.lsm.fence import RangeFence, file_fully_shadowed, shadow_check
from repro.lsm.iterator import scan_fused
from repro.lsm.memtable import Memtable
from repro.lsm.run import Run, build_files
from repro.storage.disk import CATEGORY_FLUSH

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.tree import LSMTree

_ENTRY_KEY = attrgetter("key")
_ENTRY_SEQNO = attrgetter("seqno")
_ENTRY_PAIR = attrgetter("key", "value")

#: Frozen-queue depth (per worker) at which writers take the soft delay.
SOFT_QUEUE_DEPTH_PER_WORKER = 3
#: Frozen-queue depth (per worker) at which writers hard-stall (rotation
#: refuses to grow the queue past this).
MAX_FROZEN_PER_WORKER = 4
#: Level-1 run count that triggers the soft delay (scaled by workers,
#: floored at the serial-era thresholds of 8/16).
L0_SOFT_RUNS_PER_WORKER = 4
#: The soft delay: long enough to hand the GIL to a background worker,
#: short enough to be invisible at ack granularity.
SOFT_DELAY_SECONDS = 0.0005
#: The flusher waits (briefly) for this many frozen memtables *per
#: worker* before building a flush.  Batching is where the concurrent
#: win comes from: K memtables merged newest-wins in one pass produce
#: one level-1 run, so downstream collapses run once instead of K times
#: -- measured write amplification drops ~2x at 4 workers.
FLUSH_BATCH_PER_WORKER = 2
#: How long the flusher will hold out for more memtables (seconds).
#: Bounded so a trickling writer never sees unbounded flush latency;
#: barriers bypass the hold-out entirely (``_barrier_waiters``).
FLUSH_BATCH_WAIT_SECONDS = 0.05


class _LockedListener:
    """Serializes delete-lifecycle callbacks from writer + worker threads."""

    __slots__ = ("_inner", "_lock")

    def __init__(self, inner: Any, lock: threading.Lock) -> None:
        self._inner = inner
        self._lock = lock

    def tombstone_registered(self, entry: Entry, now: int) -> None:
        with self._lock:
            self._inner.tombstone_registered(entry, now)

    def tombstone_superseded(self, entry: Entry, now: int) -> None:
        with self._lock:
            self._inner.tombstone_superseded(entry, now)

    def tombstone_persisted(self, entry: Entry, now: int) -> None:
        with self._lock:
            self._inner.tombstone_persisted(entry, now)

    def __getattr__(self, name: str) -> Any:  # stats() etc. pass through
        return getattr(self._inner, name)


class WriteStats:
    """Write-path observability counters (see ``repro.metrics.writepath``)."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.rotations = 0
        self.flush_jobs = 0
        self.flush_memtables = 0
        self.flush_entries = 0
        self.flush_wall_seconds = 0.0
        self.flush_max_seconds = 0.0
        self.compaction_jobs = 0
        self.compaction_wall_seconds = 0.0
        self.compaction_max_seconds = 0.0
        self.queue_peak = 0
        self.inflight_peak = 0
        self.soft_delays = 0
        self.hard_stalls = 0
        self.stall_seconds = 0.0
        self.pages_written_by_worker: dict[str, int] = {}

    def note_worker_pages(self, worker: str, pages: int) -> None:
        if pages:
            by = self.pages_written_by_worker
            by[worker] = by.get(worker, 0) + pages


class WritePathController:
    """Owns the background flush/compaction machinery of one tree.

    Locking order (outermost first): ``write_lock`` (writer
    serialization) -> ``_mu`` (structure + scheduler state).  Background
    threads only ever take ``_mu``; a writer waiting inside ``_mu`` can
    therefore always be woken by a background install.  Readers take no
    lock at all: they load ``self.frozen`` and ``self.published`` once
    (atomic tuple loads) and work on immutable state.
    """

    def __init__(self, tree: "LSMTree", workers: int) -> None:
        if workers < 2:
            raise ValueError("the write-path controller requires workers >= 2")
        self.tree = tree
        self.workers = workers
        self.stats = WriteStats(workers)
        #: Immutable memtables awaiting flush, newest first.
        self.frozen: tuple[Memtable, ...] = ()
        #: The published tree version: ((level, (run, ...)), ...).
        self.published: tuple = ()
        self.write_lock = threading.RLock()
        self._mu = threading.RLock()
        self._cv = threading.Condition(self._mu)
        self._job_queue: deque = deque()
        self._reserved: set[int] = set()
        self._active_jobs = 0
        self._flush_waiting = False
        self._manifest_dirty = False
        self._shutdown = False
        self._error: BaseException | None = None
        self._inline_ident: int | None = None
        self._threads: list[threading.Thread] = []
        # Tunables (instance-level so tests can tighten them).  Queue
        # depths and the flush batch scale with the worker count: more
        # workers means a deeper pipeline is needed to keep them from
        # stalling each other, and a bigger batch amortizes better.
        self.soft_queue_depth = SOFT_QUEUE_DEPTH_PER_WORKER * workers
        self.max_frozen = MAX_FROZEN_PER_WORKER * workers
        self.l0_soft_runs = max(8, L0_SOFT_RUNS_PER_WORKER * workers)
        self.l0_hard_runs = 2 * self.l0_soft_runs
        self.soft_delay = SOFT_DELAY_SECONDS
        self.flush_batch_target = max(4, FLUSH_BATCH_PER_WORKER * workers)
        self.flush_batch_wait = FLUSH_BATCH_WAIT_SECONDS
        # Deadline-aware cap: a tombstone makes no persistence progress
        # while its memtable sits in the frozen queue, so batching delay
        # (batch_target * memtable_entries ticks of ingest) must stay a
        # small fraction of D_th.  Tight thresholds relative to the
        # memtable size flush promptly; production-scale thresholds
        # leave batching untouched.
        d_th = tree.config.delete_persistence_threshold
        if d_th:
            budget = max(1, d_th // (8 * tree.config.memtable_entries))
            self.flush_batch_target = min(self.flush_batch_target, budget)
        #: Barriers in progress; the flusher skips its batching wait so
        #: quiescence is never held up for the sake of coalescing.
        self._barrier_waiters = 0
        #: Test hook: while True the flush worker leaves the queue alone
        #: (used to pin a flush in flight and probe reader visibility).
        self.hold_flushes = False

    # ==================================================================
    # lifecycle
    # ==================================================================
    def start(self) -> None:
        tree = self.tree
        tree.disk.make_thread_safe()
        tree.file_ids.make_thread_safe()
        if tree.listener is not None and not isinstance(tree.listener, _LockedListener):
            tree.listener = _LockedListener(tree.listener, threading.Lock())
        with self._mu:
            self._republish()
        flush_thread = threading.Thread(
            target=self._flush_loop, name="repro-flush", daemon=True
        )
        self._threads.append(flush_thread)
        for i in range(self.workers):
            self._threads.append(
                threading.Thread(
                    target=self._compaction_loop,
                    name=f"repro-compact-{i}",
                    daemon=True,
                )
            )
        for thread in self._threads:
            thread.start()

    def close(self) -> None:
        """Drain, quiesce, stop the workers; re-raise any background error."""
        tree = self.tree
        flush_remaining = tree._store is not None and not tree._read_only
        with self.write_lock:
            if self._error is None:
                if flush_remaining and len(tree.memtable._map):
                    self._rotate()
                try:
                    self.barrier()
                except BaseException:
                    pass  # surfaced below, after the threads are stopped
            self._stop_threads()
            self.raise_background_error()
            if (
                tree._wal is not None
                and not self.frozen
                and not len(tree.memtable._map)
            ):
                tree._wal.truncate()

    def abort(self) -> None:
        """Stop the workers without surfacing errors (crash-test abandon)."""
        if self._error is None:
            with self._cv:
                if self._error is None:
                    self._error = EngineAbortedError("write path aborted")
                self._cv.notify_all()
        self._stop_threads()

    def _stop_threads(self) -> None:
        with self._cv:
            self._shutdown = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []

    def raise_background_error(self) -> None:
        error = self._error
        if error is not None and not isinstance(error, EngineAbortedError):
            raise error

    def owns_inline(self) -> bool:
        """True when the calling thread holds :meth:`exclusive` (inline mode)."""
        return self._inline_ident == threading.get_ident()

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Quiesce the background machinery and run the caller inline.

        Used by operations that mutate structure with serial code
        (KiWi range deletes, full compaction): writers are blocked, the
        flush queue and all jobs drain, and tree methods called by this
        thread take their serial bodies.  On exit the new structure is
        republished and the pump restarted.
        """
        self.raise_background_error()
        with self.write_lock:
            self.barrier()
            prev = self._inline_ident  # nestable: restore, don't clear
            self._inline_ident = threading.get_ident()
            try:
                yield
            finally:
                self._inline_ident = prev
                with self._cv:
                    self._republish()
                    self._pump_locked()
                    self._cv.notify_all()

    # ==================================================================
    # write path (called by the tree under no lock; we take write_lock)
    # ==================================================================
    def apply_batch(self, ops: Iterable[tuple]) -> int:
        """The concurrent twin of :meth:`LSMTree.apply_batch`.

        Same per-op semantics and counters; the differences are (a) all
        writers serialize on ``write_lock``, (b) a full memtable *rotates*
        instead of flushing inline, and (c) every entry is appended to the
        WAL before its memtable is handed to the background flush (the
        replay filter drops the duplicates after the flush lands), so
        acknowledged writes are always durable.
        """
        self.raise_background_error()
        tree = self.tree
        with self.write_lock:
            wal = tree._wal
            pending: list[Entry] = []
            memtable = tree.memtable
            listener = tree.listener
            clock = tree.clock
            counters = tree.counters
            config = tree.config
            fade = tree._fade
            make_put = Entry.put
            make_tombstone = Entry.tombstone
            clock_now = clock.now
            clock_tick = clock.tick
            memtable_add = memtable.add
            mt_map = memtable._map
            capacity = memtable.capacity
            put_bytes = config.entry_bytes(is_tombstone=False)
            tombstone_bytes = config.entry_bytes(is_tombstone=True)
            puts = deletes = ingested = 0
            count = 0
            try:
                for op in ops:
                    kind = op[0]
                    now = clock_now()
                    seqno = tree._seqno + 1
                    tree._seqno = seqno
                    if kind == "put":
                        entry = make_put(
                            op[1],
                            op[2],
                            seqno,
                            now,
                            op[3] if len(op) > 3 else None,
                        )
                        puts += 1
                        ingested += put_bytes
                    elif kind == "delete":
                        entry = make_tombstone(op[1], seqno, now)
                        deletes += 1
                        ingested += tombstone_bytes
                        if listener is not None:
                            listener.tombstone_registered(entry, now)
                    else:
                        raise ValueError(f"unknown batch op kind {kind!r}")
                    if wal is not None:
                        pending.append(entry)
                    displaced = memtable_add(entry)
                    if (
                        displaced is not None
                        and displaced.is_tombstone
                        and listener is not None
                    ):
                        listener.tombstone_superseded(displaced, now)
                    clock_tick()
                    count += 1
                    rotate = len(mt_map) >= capacity
                    if not rotate and fade is not None and memtable.first_tombstone_time is not None:
                        deadline = fade.buffer_deadline(
                            memtable.first_tombstone_time,
                            tree.deepest_nonempty_level(),
                        )
                        rotate = clock_now() >= deadline
                    if rotate:
                        # Acked entries must be in the log before their
                        # memtable leaves the writer's hands.
                        if wal is not None and pending:
                            wal.append_many(pending)
                            pending.clear()
                        self._rotate()
                        self._throttle()
                        self.raise_background_error()
                        memtable = tree.memtable
                        memtable_add = memtable.add
                        mt_map = memtable._map
                        # Re-hoist the fill bound: the rotation may have
                        # installed a memtable sized from a retargeted
                        # governor budget (no-op when the governor is off).
                        capacity = memtable.capacity
            finally:
                counters["puts"] += puts
                counters["deletes"] += deletes
                counters["ingested_bytes"] += ingested
                if wal is not None and pending:
                    wal.append_many(pending)
            return count

    def _rotate(self) -> None:
        """Freeze the active memtable (write_lock held by the caller).

        Order matters for lock-free readers: the memtable enters
        ``frozen`` *before* ``tree.memtable`` is rebound, so a concurrent
        lookup sees the old table in at least one of the two places (a
        brief double-sighting is harmless -- same entries).
        """
        tree = self.tree
        memtable = tree.memtable
        if not len(memtable._map):
            return
        stats = self.stats
        with self._cv:
            self.frozen = (memtable,) + self.frozen
            stats.rotations += 1
            depth = len(self.frozen)
            if depth > stats.queue_peak:
                stats.queue_peak = depth
            self._cv.notify_all()
        # Replacements are sized from the live soft limit (equal to
        # config.memtable_entries unless the memory governor retargeted
        # it), so a budget change lands at the next rotation without ever
        # touching the frozen-queue protocol.
        tree.memtable = Memtable(tree.memtable_budget)

    def _throttle(self) -> None:
        """Backpressure after a rotation (write_lock held by the caller)."""
        tree = self.tree
        stats = self.stats
        levels = tree._levels
        l1_runs = len(levels[0].runs) if levels else 0
        depth = len(self.frozen)
        if depth < self.max_frozen and l1_runs < self.l0_hard_runs:
            if depth >= self.soft_queue_depth or l1_runs >= self.l0_soft_runs:
                stats.soft_delays += 1
                stats.stall_seconds += self.soft_delay
                sleep(self.soft_delay)  # yields the GIL to the workers
            return
        started = perf_counter()
        stats.hard_stalls += 1
        with self._cv:
            while self._error is None and (
                len(self.frozen) >= self.max_frozen
                or (len(levels[0].runs) if levels else 0) >= self.l0_hard_runs
            ):
                self._cv.wait(0.05)
        stats.stall_seconds += perf_counter() - started

    def append_range_fence(self, lo: Any, hi: Any) -> RangeFence:
        """The concurrent twin of the serial fence append: still O(1).

        Unlike eager range deletes, no :meth:`exclusive` quiesce is
        needed -- the fence is one WAL append plus one manifest rewrite
        under the writer lock, and becomes visible to lock-free readers
        the instant ``tree._fences`` is rebound (readers load the fence
        tuple before any snapshot, so visibility is never late).
        """
        self.raise_background_error()
        tree = self.tree
        with self.write_lock:
            fence = RangeFence(lo, hi, tree._seqno + 1, tree.clock.now())
            tree._seqno = fence.seqno
            if tree._wal is not None:
                tree._wal.append(fence.to_entry())
            with self._cv:
                tree._install_fence(fence)
                tree._persist_manifest()
                self._pump_locked()
                self._cv.notify_all()
        return fence

    def set_policy(self, style: Any) -> bool:
        """The concurrent twin of the serial policy switch.

        No :meth:`exclusive` quiesce: the switch rebinds the tree's
        config (old and new differ only in ``policy``, so a racing
        reader or in-flight job sees a coherent object either way) and
        republishes the manifest under the writer lock + ``_cv`` -- the
        same exclusion every plan runs under, so the next ``_pump_locked``
        below already plans with the new triggers.  Transition
        compactions (tiering -> leveling run collapses) flow through the
        ordinary background executor with FADE priority preserved.
        """
        self.raise_background_error()
        tree = self.tree
        with self.write_lock:
            with self._cv:
                changed = tree._apply_policy_switch(style)
                if changed:
                    self._pump_locked()
                    self._cv.notify_all()
        return changed

    # ==================================================================
    # read path (no locks; immutable snapshots)
    # ==================================================================
    def get_entry(self, key: Any) -> Entry | None:
        """Point lookup over active memtable -> frozen queue -> snapshot.

        The on-disk descent mirrors :meth:`LSMTree.get_entry` exactly
        (range fences -> Bloom probe with one hash pair per lookup ->
        cache-first single-page fast path) so modeled page reads and the
        per-level skip/probe accounting agree between serial and
        concurrent mode on identical workloads.
        """
        tree = self.tree
        # The fence snapshot is loaded *before* frozen/published.  Fence
        # retirement republishes the post-resolution structure before it
        # drops a fence, so this load order guarantees a reader never
        # pairs a retired-fence view with a snapshot that still holds the
        # entries that fence shadowed.
        fences = tree._fences
        check = shadow_check(fences)
        entry = tree.memtable.get(key)
        if entry is not None:
            if check is None or not check(entry):
                return entry
            # Fence-shadowed: an older out-of-window version may survive
            # in the frozen queue or on disk -- keep descending.
        for memtable in self.frozen:
            entry = memtable.get(key)
            if entry is not None:
                if check is None or not check(entry):
                    return entry
        reader = tree._reader
        hashed = None
        cache_get = tree.cache.get
        single_page = tree.config.pages_per_tile == 1
        for level, runs in self.published:
            pinned = level.index == 1
            for run in runs:  # newest first
                files = run.files
                if key < files[0].min_key or key > files[-1].max_key:
                    level.lookup_skips_range += 1
                    continue
                fence = run.file_fence
                idx = bisect_right(fence.mins, key) - 1
                if idx < 0 or key > fence.maxes[idx]:
                    level.lookup_skips_range += 1
                    continue
                file = files[idx]
                if check is not None and file_fully_shadowed(file, fences):
                    # Every PUT in this file is fence-shadowed: skip the
                    # Bloom probe and the page descent entirely.
                    level.lookup_skips_fence += 1
                    continue
                if hashed is None:
                    hashed = key_hash_pair(key, tree.bloom_salt)
                if not file.bloom.might_contain_hashed(hashed[0], hashed[1]):
                    level.lookup_skips_bloom += 1
                    continue
                level.lookup_probes += 1
                if single_page:
                    tile_fence = file.tile_fence
                    tidx = bisect_right(tile_fence.mins, key) - 1
                    if tidx < 0 or key > tile_fence.maxes[tidx]:
                        continue  # filter false positive, key between tiles
                    pages = file.tiles[tidx].pages
                    if len(pages) != 1:  # layout drift (recovered file)
                        found = file.get(key, reader, pinned, tidx, hashed)
                    else:
                        page = cache_get(file.file_id, tidx)
                        if page is None:
                            tree.disk.read_pages(1, reader.category)
                            page = pages[0]
                            tree.cache.put(file.file_id, tidx, page, pinned)
                            found = page.get(key)
                            if found is None:
                                # Negative-lookup guard, as in
                                # LSMTree.get_entry (hardened caches only).
                                tree.cache.note_negative(file.file_id, tidx)
                        else:
                            level.lookup_cache_direct += 1
                            found = page.get(key)
                else:
                    found = file.get(key, reader, pinned, None, hashed)
                if found is not None:
                    if check is not None and check(found):
                        # Shadowed by a fence that outlives this version;
                        # an older survivor may exist deeper down.
                        continue
                    level.lookup_serves += 1
                    return found
        return None

    def scan(
        self,
        lo: Any,
        hi: Any,
        limit: int | None = None,
        reverse: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """Fused range scan over the full concurrent view.

        The active memtable is snapshotted under ``write_lock`` (skip-list
        links are not safe to traverse mid-insert); each frozen memtable
        and the published runs are immutable and need no lock.  Shadow
        resolution is by seqno inside :func:`scan_fused`, so each source's
        relative order is irrelevant.
        """
        tree = self.tree
        reader = tree._reader
        sources: list = []
        with self.write_lock:
            fences = tree._fences  # before frozen/published (see get_entry)
            buffered = list(tree.memtable.range(lo, hi))
            frozen = self.frozen
            published = self.published
        if buffered:
            if reverse:
                buffered.reverse()
            sources.append((buffered,))
        for memtable in frozen:
            chunk = list(memtable.range(lo, hi))
            if chunk:
                if reverse:
                    chunk.reverse()
                sources.append((chunk,))
        for level, runs in published:
            for run in runs:
                if run.max_key < lo or run.min_key > hi:
                    level.scan_runs_pruned += 1
                    continue
                sources.append(run.scan_blocks(lo, hi, reader, reverse))
        if not sources:
            return iter(())
        return map(
            _ENTRY_PAIR,
            scan_fused(
                sources, limit=limit, reverse=reverse, drop=shadow_check(fences)
            ),
        )

    # ==================================================================
    # quiesce points
    # ==================================================================
    def barrier(self) -> None:
        """Block until the flush queue is empty and no job is in flight.

        Also drives the pump one more round at quiescence so anything the
        last install unlocked (including due FADE expiries) runs before
        the barrier reports clean.  Raises the background error, if any.
        """
        self.raise_background_error()
        with self._cv:
            self._barrier_waiters += 1
            self._cv.notify_all()  # wake a flusher out of its batching wait
            try:
                while self._error is None:
                    if not self.frozen and self._active_jobs == 0:
                        self._pump_locked()
                        if self._active_jobs == 0 and not self.frozen:
                            break
                        continue
                    self._cv.wait(0.05)
            finally:
                self._barrier_waiters -= 1
        self.raise_background_error()

    def flush(self) -> None:
        """The concurrent :meth:`LSMTree.flush`: rotate, drain, rotate WAL."""
        self.raise_background_error()
        tree = self.tree
        with self.write_lock:
            self._rotate()
            self.barrier()
            # Everything acknowledged is now durable through published
            # manifests; the log can finally rotate (the per-flush
            # truncation of serial mode is unsafe while newer acked
            # entries still live only in the log).
            if (
                tree._wal is not None
                and not self.frozen
                and not len(tree.memtable._map)
            ):
                tree._wal.truncate()

    def advance_time(self, ticks: int) -> None:
        """Concurrent :meth:`LSMTree.advance_time`: deadline-stepped drain.

        The logical clock only moves here and on ingest, and the write
        lock is held throughout, so draining at each deadline stop makes
        expiry compactions run at exactly the tick they are due -- the
        same schedule the serial engine produces.
        """
        tree = self.tree
        self.raise_background_error()
        if ticks < 0:
            raise ValueError(f"cannot advance time backwards ({ticks})")
        with self.write_lock:
            # Drain the backlog first so every deadline below is computed
            # against a structurally current tree (the clock is frozen, so
            # this costs no simulated time).
            self.barrier()
            target = tree.clock.now() + ticks
            while True:
                now = tree.clock.now()
                if now >= target:
                    break
                stop = target
                fade = tree._fade
                if fade is not None:
                    next_deadline = fade.next_deadline()
                    if next_deadline is not None and now < next_deadline < stop:
                        stop = next_deadline
                    first = tree.memtable.first_tombstone_time
                    if first is not None:
                        buffer_deadline = fade.buffer_deadline(
                            first, tree.deepest_nonempty_level()
                        )
                        if now < buffer_deadline < stop:
                            stop = buffer_deadline
                tree.clock.advance_to(stop)
                fade_due = tree._fade_deadline_due()
                if tree.memtable.is_full:
                    self._rotate()
                elif (
                    fade is not None
                    and tree._fences
                    and fade.fence_overdue(tree.clock.now())
                    and tree._buffer_shadowable()
                ):
                    # A fence past D_th whose shadowed data still sits in
                    # the buffer: rotate so the flush filters it out and
                    # the fence can retire (maintain()'s forced-flush
                    # branch, concurrent edition).
                    self._rotate()
                elif fade is not None and tree.memtable.first_tombstone_time is not None:
                    deadline = fade.buffer_deadline(
                        tree.memtable.first_tombstone_time,
                        tree.deepest_nonempty_level(),
                    )
                    if tree.clock.now() >= deadline:
                        self._rotate()
                if self.frozen or fade_due:
                    self.barrier()

    # ==================================================================
    # flush worker
    # ==================================================================
    def _flush_loop(self) -> None:
        tree = self.tree
        while True:
            with self._cv:
                while (
                    (not self.frozen or self.hold_flushes)
                    and not self._shutdown
                    and self._error is None
                ):
                    self._cv.wait(0.05 if self.hold_flushes else None)
                if self._error is not None:
                    return
                if not self.frozen:
                    return  # shutdown, queue drained
                if self._shutdown and self.hold_flushes:
                    return
                # Hold out briefly for a fuller batch: merging K memtables
                # in one pass replaces K flushes + K collapse rounds.
                # Skipped when anything is waiting on quiescence.
                if (
                    len(self.frozen) < self.flush_batch_target
                    and not self._shutdown
                    and self._barrier_waiters == 0
                ):
                    deadline = perf_counter() + self.flush_batch_wait
                    while (
                        len(self.frozen) < self.flush_batch_target
                        and not self._shutdown
                        and self._barrier_waiters == 0
                        and self._error is None
                    ):
                        remaining = deadline - perf_counter()
                        if remaining <= 0:
                            break
                        self._cv.wait(remaining)
                    if self._error is not None:
                        return
                batch = self.frozen  # whole queue, newest first
            started = perf_counter()
            try:
                files, entry_count, flushed_seqno = self._build_flush(batch)
            except BaseException as exc:  # noqa: BLE001 - background error
                with self._cv:
                    if self._error is None:
                        self._error = exc
                    self._cv.notify_all()
                return
            with self._cv:
                self._flush_waiting = True
                while 1 in self._reserved and self._error is None:
                    self._cv.wait(0.05)
                self._flush_waiting = False
                if self._error is not None:
                    self._cv.notify_all()
                    return
                try:
                    self._install_flush(batch, files, flushed_seqno)
                except BaseException as exc:  # noqa: BLE001
                    if self._error is None:
                        self._error = exc
                    self._cv.notify_all()
                    return
                wall = perf_counter() - started
                stats = self.stats
                stats.flush_jobs += 1
                stats.flush_memtables += len(batch)
                stats.flush_entries += entry_count
                stats.flush_wall_seconds += wall
                if wall > stats.flush_max_seconds:
                    stats.flush_max_seconds = wall
                stats.note_worker_pages(
                    threading.current_thread().name,
                    sum(f.page_count for f in files),
                )
                self._cv.notify_all()
                self._pump_locked()

    def _build_flush(self, batch: tuple) -> tuple:
        """Merge the frozen queue newest-wins and build level-1 files.

        Runs outside every lock: the frozen memtables are immutable and
        the disk/file-id/listener shims are thread-safe.  A tombstone
        superseded *across* memtables in the batch is reported exactly as
        the memtable itself reports same-table displacement.
        """
        tree = self.tree
        listener = tree.listener
        now = tree.clock.now()
        tombstone_kind = EntryKind.TOMBSTONE
        # Newest-wins via C-level dict merges: each memtable's sidecar
        # index already holds exactly one (latest) entry per key, so one
        # dict.update per memtable replaces the per-entry Python loop.
        # Only the delete-lifecycle bookkeeping (tombstones superseded
        # across memtables) needs per-entry attention, and only for
        # tombstone-bearing tables.
        merged: dict = {}
        tombstone_keys: set = set()
        for memtable in reversed(batch):  # oldest -> newest
            index = memtable._map._index
            if listener is not None:
                if tombstone_keys:
                    for key in tombstone_keys.intersection(index):
                        listener.tombstone_superseded(merged[key], now)
                    tombstone_keys.difference_update(index)
                if memtable.tombstone_count:
                    for key, entry in index.items():
                        if entry.kind is tombstone_kind:
                            tombstone_keys.add(key)
            merged.update(index)
        flushed_seqno = max(
            (
                max(map(_ENTRY_SEQNO, mt._map._index.values()), default=0)
                for mt in batch
            ),
            default=0,
        )
        entries = sorted(merged.values(), key=_ENTRY_KEY)
        # Lazy range deletes: drop fence-shadowed entries instead of
        # writing them out (the flush-time twin of eager's memtable
        # purge).  flushed_seqno above was computed over *all* drained
        # entries, so WAL replay still filters them correctly.
        check = shadow_check(tree._fences)
        if check is not None:
            entries = [e for e in entries if not check(e)]
        if not entries:
            return [], 0, flushed_seqno
        files = build_files(
            entries, tree.config, tree.file_ids, now, salt=tree.bloom_salt
        )
        tree.disk.write_pages(sum(f.page_count for f in files), CATEGORY_FLUSH)
        for file in files:
            tree._persist_file(file)
        return files, len(entries), flushed_seqno

    def _install_flush(self, batch: tuple, files: list, flushed_seqno: int) -> None:
        """Publish the flushed run (``_mu`` held by the caller)."""
        tree = self.tree
        if files:  # every survivor may have been fence-shadowed
            tree.level(1).add_newest_run(Run(files))
            for file in files:
                tree._register_file(file, 1)
        tree.flush_count += 1
        if flushed_seqno > tree._flushed_seqno:
            tree._flushed_seqno = flushed_seqno
        tree._persist_manifest()
        # Publish the new snapshot *before* trimming the frozen queue.
        # Readers load memtable -> frozen -> published in that order, so
        # this order guarantees every flushed entry is visible in at
        # least one of the two at every instant; trimming first opens a
        # window where an acknowledged write is in neither.  The
        # transient double-sighting (frozen + new level-1 run) is
        # harmless for the same reason _rotate's handoff is: frozen is
        # consulted first on lookups, and scans resolve by seqno.
        self._republish()
        self.frozen = self.frozen[: len(self.frozen) - len(batch)]
        # Fence retirement comes *after* the republish + trim: readers
        # load fences before snapshots, so a fence may only disappear
        # once no published (or still-frozen) entry needs it.  The audit
        # includes the remaining frozen memtables -- their sidecar
        # indexes are plain dicts, safe to snapshot under the GIL.
        if tree._fences and tree._retire_resolved_fences(
            [list(mt._map._index.values()) for mt in self.frozen]
        ):
            tree._persist_manifest()

    # ==================================================================
    # compaction scheduler
    # ==================================================================
    def _pump_locked(self) -> None:
        """Plan and dispatch level-disjoint jobs (``_mu`` held).

        Trivial moves (pure metadata) execute inline -- dispatching them
        would cost more than doing them.  Planning happens under the same
        lock as every install, so the planner always sees a consistent
        structure; reserved levels (plus level 1 while a flush waits to
        install) are masked out.
        """
        if self._error is not None or self._shutdown:
            return
        tree = self.tree
        executed_trivial = False
        while self._active_jobs < self.workers:
            busy = self._reserved
            if self._flush_waiting:
                busy = busy | {1}
            frozen_busy = frozenset(busy)
            task = tree._planner.plan(tree, frozen_busy)
            if task is None and tree._fade is not None:
                task = tree._fade.plan(tree, frozen_busy)
            if task is None:
                break
            if task.trivial_move:
                event = execute_task(task, tree)
                tree.compaction_log.append(event)
                self.stats.compaction_jobs += 1
                executed_trivial = True
                continue
            levels = set(task.involved_levels)
            self._reserved |= levels
            self._active_jobs += 1
            if self._active_jobs > self.stats.inflight_peak:
                self.stats.inflight_peak = self._active_jobs
            self._job_queue.append((task, levels, tree.clock.now()))
            self._cv.notify_all()
        if executed_trivial:
            tree._persist_manifest()
            self._republish()
        # An overdue fence that no longer shadows anything can't be
        # planned into a compaction (there is nothing to rewrite) -- when
        # the pipeline is idle, retire it here so quiescence converges
        # (the concurrent twin of maintain()'s resolved-fence branch).
        fade = tree._fade
        if (
            tree._fences
            and fade is not None
            and not self._reserved
            and self._active_jobs == 0
            and fade.fence_overdue(tree.clock.now())
            and tree._retire_resolved_fences(
                [list(mt._map._index.values()) for mt in self.frozen]
            )
        ):
            tree._persist_manifest()

    def _compaction_loop(self) -> None:
        tree = self.tree
        worker = threading.current_thread().name
        while True:
            with self._cv:
                while not self._job_queue and not self._shutdown:
                    self._cv.wait()
                if self._job_queue:
                    task, levels, now = self._job_queue.popleft()
                    if self._error is not None:
                        # Poisoned engine: release the reservation and
                        # drain the queue without touching the tree.
                        self._reserved -= levels
                        self._active_jobs -= 1
                        self._cv.notify_all()
                        continue
                else:
                    return  # shutdown, no queued work
            started = perf_counter()
            try:
                merged = merge_task(task, tree, now=now)
            except BaseException as exc:  # noqa: BLE001 - background error
                with self._cv:
                    if self._error is None:
                        self._error = exc
                    self._reserved -= levels
                    self._active_jobs -= 1
                    self._cv.notify_all()
                continue
            with self._cv:
                if self._error is None:
                    try:
                        event = install_task(task, tree, merged)
                        tree.compaction_log.append(event)
                        tree._persist_manifest()
                        self._republish()
                        # Retire-after-republish: see _install_flush.
                        if tree._fences and tree._retire_resolved_fences(
                            [
                                list(mt._map._index.values())
                                for mt in self.frozen
                            ]
                        ):
                            tree._persist_manifest()
                        wall = perf_counter() - started
                        stats = self.stats
                        stats.compaction_jobs += 1
                        stats.compaction_wall_seconds += wall
                        if wall > stats.compaction_max_seconds:
                            stats.compaction_max_seconds = wall
                        stats.note_worker_pages(worker, merged.pages_written)
                    except BaseException as exc:  # noqa: BLE001
                        if self._error is None:
                            self._error = exc
                self._reserved -= levels
                self._active_jobs -= 1
                self._cv.notify_all()
                if self._error is None:
                    self._pump_locked()

    # ==================================================================
    # snapshots & stats
    # ==================================================================
    def _republish(self) -> None:
        """Rebuild the immutable version readers navigate (``_mu`` held)."""
        self.published = tuple(
            (level, tuple(level.runs)) for level in self.tree._levels
        )

    def report(self) -> dict[str, Any]:
        stats = self.stats
        return {
            "mode": "concurrent",
            "workers": stats.workers,
            "rotations": stats.rotations,
            "queue_depth": len(self.frozen),
            "queue_peak": stats.queue_peak,
            "flush_jobs": stats.flush_jobs,
            "flush_memtables": stats.flush_memtables,
            "flush_entries": stats.flush_entries,
            "flush_wall_ms": stats.flush_wall_seconds * 1000.0,
            "flush_max_ms": stats.flush_max_seconds * 1000.0,
            "compaction_jobs": stats.compaction_jobs,
            "compaction_inflight": self._active_jobs,
            "compaction_inflight_peak": stats.inflight_peak,
            "compaction_wall_ms": stats.compaction_wall_seconds * 1000.0,
            "compaction_max_ms": stats.compaction_max_seconds * 1000.0,
            "soft_delays": stats.soft_delays,
            "hard_stalls": stats.hard_stalls,
            "stall_seconds": stats.stall_seconds,
            "pages_written_by_worker": dict(stats.pages_written_by_worker),
        }


class EngineAbortedError(RuntimeError):
    """Internal sentinel: the controller was abandoned mid-crash-test."""
