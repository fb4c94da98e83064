"""The LSM-tree: ingestion, reads, flushing, and the maintenance loop.

One class serves every engine variant in the repository.  Delete-awareness
is attached, not forked:

* when the config carries a ``delete_persistence_threshold``, a
  :class:`~repro.core.fade.FadeScheduler` is wired into the maintenance
  loop (expiry-driven compactions and early buffer flushes);
* a :class:`~repro.core.persistence.DeleteLifecycleListener` (usually the
  :class:`~repro.core.persistence.PersistenceTracker`) observes every
  tombstone's registration, supersession, and persistence;
* the physical layout (classic vs KiWi weave) is decided by
  ``pages_per_tile`` inside the file builder.

Durability is optional: construct with a :class:`~repro.storage.FileStore`
(or use :meth:`LSMTree.open`) and every flush/compaction is persisted --
files first, then an atomic manifest swap -- with WAL protection for the
buffer.  Benchmarks run memory-only; the simulated disk accounts I/O either
way.

Timing convention: the logical clock advances by one tick per ingest
operation (put or delete).  Reads do not advance time; call
:meth:`advance_time` to model idle periods.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import Any, Iterable, Iterator

from repro.clock import LogicalClock
from repro.config import CompactionStyle, LSMConfig
from repro.errors import (
    ConfigError,
    CorruptionError,
    EngineClosedError,
    InvariantViolationError,
    StorageError,
)
from repro.lsm.entry import Entry
from repro.lsm.fence import (
    RangeFence,
    file_fully_shadowed,
    file_shadowable,
    shadow_check,
)
from repro.lsm.iterator import scan_fused
from repro.lsm.level import Level
from repro.lsm.memtable import Memtable
from repro.lsm.page import DeleteTile, Page
from repro.lsm.run import (
    FileIdAllocator,
    PageReader,
    Run,
    SSTableFile,
    build_files,
    build_filters,
)
from repro.lsm.compaction.executor import CompactionEvent, execute_task
from repro.lsm.compaction.planner import SaturationPlanner
from repro.lsm.compaction.task import (
    CompactionReason,
    CompactionTask,
    OutputPlacement,
    TaskInput,
)
from repro.filters.bloom import generate_salt, key_hash_pair
from repro.storage.cache import BlockCache
from repro.storage.disk import CATEGORY_FLUSH, SimulatedDisk
from repro.storage.faults import FaultInjector
from repro.storage.filestore import FileStore
from repro.storage.wal import WriteAheadLog

#: C-implemented row shaper for :meth:`LSMTree.scan`.
_ENTRY_PAIR = attrgetter("key", "value")


class LSMTree:
    """A complete LSM-tree storage engine (see module docstring)."""

    def __init__(
        self,
        config: LSMConfig,
        disk: SimulatedDisk | None = None,
        cache: BlockCache | None = None,
        clock: LogicalClock | None = None,
        listener: Any = None,
        store: FileStore | None = None,
        wal_sync: bool = False,
        read_only: bool = False,
        workers: int = 1,
    ) -> None:
        self.config = config
        self.disk = disk or SimulatedDisk(config.disk)
        self.cache = cache or BlockCache(
            config.cache_pages, hardened=config.cache_hardened
        )
        #: Per-tree bloom salt (None on unsalted trees).  Generated fresh
        #: at create when the config opts in; :meth:`_restore_from_manifest`
        #: overrides with the persisted salt on reopen so every filter
        #: rebuilt from recovered files probes through the original keyed
        #: digest.
        self.bloom_salt: bytes | None = (
            generate_salt() if config.bloom_salted else None
        )
        self.clock = clock or LogicalClock()
        self.listener = listener
        #: Live write-buffer soft limit (entries).  Advisory governor
        #: state, never persisted: the per-op flush trigger and the
        #: concurrent write path's rotation both size against this, so
        #: the memory governor can shrink or grow a buffer at runtime;
        #: every reopen starts back at ``config.memtable_entries``.
        self.memtable_budget = config.memtable_entries
        self.memtable = Memtable(config.memtable_entries)
        #: One long-lived, cache-aware page reader shared by every lookup
        #: and scan.  Constructing a reader per call (the seed behaviour)
        #: cost an allocation per read and, worse, obscured that the block
        #: cache is shared state -- the reader *is* the read path's handle
        #: to it.
        self._reader = PageReader(self.disk, self.cache)
        self.file_ids = FileIdAllocator()
        self.compaction_log: list[CompactionEvent] = []
        self.flush_count = 0
        self.counters: dict[str, int] = {
            "puts": 0,
            "deletes": 0,
            "gets": 0,
            "gets_found": 0,
            "scans": 0,
            "ingested_bytes": 0,
        }
        self._levels: list[Level] = []
        self._seqno = 0
        #: Cache of :meth:`deepest_nonempty_level`, invalidated whenever a
        #: level's run list changes (levels call back via their observer).
        self._deepest_cache: int | None = None
        #: True when the level structure may have changed since the last
        #: quiescent maintenance pass.  While clean, ``maintain()`` skips
        #: the planner entirely (the saturation triggers are functions of
        #: structure alone, so an unchanged tree cannot need work).
        self._maintenance_dirty = True
        self._planner = SaturationPlanner(config)
        #: Live policy-switch bookkeeping (the self-tuning compaction
        #: seam, :meth:`set_policy`).  The *applied* policy is durable
        #: config state -- every switch republishes the manifest -- but
        #: these counters are process-local observability.
        self.policy_switches = 0
        self.last_policy_switch_tick: int | None = None
        self._fade = None
        if config.fade_enabled:
            from repro.core.fade import FadeScheduler  # avoid import cycle

            self._fade = FadeScheduler(config)
        self._store = store
        self._read_only = read_only
        self._wal = (
            WriteAheadLog(store.wal_path, sync=wal_sync, faults=store.faults)
            if store is not None and not read_only
            else None
        )
        self._closed = False
        #: SSTable file ids detached from the tree but not yet physically
        #: deleted.  Physical deletion is deferred until the next manifest
        #: publication: deleting an input file before the manifest stops
        #: referencing it would make a crash in between unrecoverable.
        self._doomed_files: list[int] = []
        #: Live range-tombstone fences (lazy secondary range deletes),
        #: oldest first.  Always rebound as a whole tuple, never mutated,
        #: so concurrent readers snapshot it with one attribute load.
        self._fences: tuple[RangeFence, ...] = ()
        #: High-water sequence number of entries durable in *runs* (i.e.
        #: flushed).  Distinct from ``_seqno``, which also counts entries
        #: living only in the memtable+WAL: the WAL replay filter must
        #: compare against the flushed mark, or a manifest published by a
        #: compaction (with a non-empty memtable) would make recovery skip
        #: acknowledged buffered writes.
        self._flushed_seqno = 0
        #: Recovery bookkeeping (populated by :meth:`open`).
        self.degraded = False
        self.recovery_errors: list[str] = []
        self.recovery_log: list[str] = []
        self._degraded_ok = False
        #: The concurrent write-path controller, or None in serial mode.
        #: ``workers`` is a runtime-only knob (never recorded in the
        #: manifest): with the default of 1 every code path below is the
        #: untouched serial one, bit-for-bit.
        self._wp = None
        if workers > 1 and not read_only:
            self._start_write_path(workers)

    # ==================================================================
    # construction from disk
    # ==================================================================
    @classmethod
    def open(
        cls,
        config: LSMConfig | None,
        directory: str,
        listener: Any = None,
        wal_sync: bool = False,
        read_only: bool = False,
        faults: FaultInjector | None = None,
        degraded_ok: bool = False,
        cache: BlockCache | None = None,
        workers: int = 1,
    ) -> "LSMTree":
        """Open (or create) a durable tree rooted at ``directory``.

        ``cache`` lets the caller share a block cache across reopens; any
        pages belonging to crash-orphaned sstables are invalidated during
        recovery, so a shared cache never serves stale data.

        ``config=None`` loads the configuration recorded in the manifest
        (a durable directory is self-describing); passing a config on an
        existing directory overrides the recorded one -- safe for
        runtime-only knobs (cache size, disk model), at the caller's risk
        for layout knobs.

        ``read_only=True`` opens for inspection: the store is never
        touched (no WAL handle, no flush on close, no manifest writes)
        and every mutating operation raises.

        Recovery sequence (each step ordered after the previous):

        1. sweep ``*.tmp`` orphans left by interrupted publications;
        2. load and verify the manifest (epoch + checksum);
        3. load every referenced SSTable, rebuilding FADE deadline and
           oldest-tombstone metadata from the recovered runs;
        4. garbage-collect SSTables the manifest does not reference
           (outputs of a flush/compaction that crashed before publish);
        5. replay the WAL into the memtable, *skipping* records at or
           below the manifest's seqno high-water mark (duplicates from a
           crash between manifest publish and WAL rotation);
        6. re-register every recovered tombstone (on disk and in the WAL)
           with the lifecycle listener, preserving original write times
           so persistence ages survive the restart;
        7. run :meth:`verify_invariants` over the recovered tree.

        ``degraded_ok=True`` turns unrecoverable SSTable corruption into
        a *degraded read-only* open instead of an exception: broken files
        are skipped (recorded in ``tree.recovery_errors``), the WAL is
        not opened for writing, and every mutating operation raises.

        ``faults`` attaches a :class:`FaultInjector` to the store and WAL
        so tests can interrupt any durable transition.
        """
        store = FileStore(directory, faults=faults)
        swept = store.clean_temp_files() if not read_only else []
        if config is None:
            manifest = store.read_manifest()
            if manifest is None or "config" not in manifest:
                raise ConfigError(
                    f"no config given and {directory} has no recorded one "
                    "(empty or pre-1.0 store)"
                )
            config = LSMConfig.from_dict(manifest["config"])
        tree = cls(
            config,
            cache=cache,
            listener=listener,
            store=store,
            wal_sync=wal_sync,
            read_only=read_only,
        )
        tree._degraded_ok = degraded_ok
        if swept:
            tree.recovery_log.append(f"removed {len(swept)} orphan temp file(s)")
        manifest = store.read_manifest()
        manifest_seqno = 0
        if manifest is not None:
            tree._restore_from_manifest(manifest)
            # Filter replay against the *flushed* high-water mark, not the
            # global one: a compaction publishes a manifest whose `seqno`
            # covers buffered entries that exist only in the WAL.
            manifest_seqno = manifest.get("flushed_seqno", manifest["seqno"])
        if tree.recovery_errors:
            # Unrecoverable corruption, caller opted into salvage mode:
            # serve what is readable, refuse every mutation.
            tree.degraded = True
            tree._read_only = True
            if tree._wal is not None:
                tree._wal.close()
                tree._wal = None
        if manifest is not None and not tree._read_only:
            live = {
                fid
                for run_lists in manifest["levels"]
                for file_ids in run_lists
                for fid in file_ids
            }
            orphans = store.garbage_collect(live)
            if orphans:
                # File-id immutability: an orphan's id must never be
                # reassigned to different content, or a cache entry keyed
                # by (file_id, page) could silently go stale.  Advance the
                # allocator past every GC'd id and drop any pages a shared
                # cache may still hold for them.
                for fid in orphans:
                    tree.cache.invalidate_file(fid)
                tree.file_ids.advance_past(max(orphans))
                tree.recovery_log.append(
                    f"garbage-collected {len(orphans)} unreferenced sstable(s): {orphans}"
                )
        # Tombstones already persisted in recovered runs: re-register so
        # the persistence tracker's pending set (and its ages, anchored on
        # each entry's write_time) survives the restart.
        if tree.listener is not None:
            now = tree.clock.now()
            for level in tree.iter_levels():
                for run in level.runs:
                    for file in run.files:
                        for entry in file.iter_all_entries():
                            if entry.is_tombstone:
                                tree.listener.tombstone_registered(entry, now)
        skipped = 0
        try:
            for entry in WriteAheadLog.replay(store.wal_path):
                if entry.is_range_fence:
                    # A fence never enters the memtable and is *not*
                    # filtered by the flushed mark (it is no flushable
                    # datum); the manifest usually already carries it --
                    # the WAL copy only closes the crash window between
                    # fence append and manifest publish.
                    fence = RangeFence.from_entry(entry)
                    if all(f.seqno != fence.seqno for f in tree._fences):
                        tree._install_fence(fence)
                        tree.recovery_log.append(
                            f"restored fence seq={fence.seqno} from the WAL"
                        )
                    tree._seqno = max(tree._seqno, entry.seqno)
                    tree.clock.advance_to(entry.write_time + 1)
                    continue
                if entry.seqno <= manifest_seqno:
                    skipped += 1  # already durable via the manifest's flushed runs
                    continue
                tree.memtable.add(entry)
                tree._seqno = max(tree._seqno, entry.seqno)
                tree.clock.advance_to(entry.write_time + 1)
                if entry.is_tombstone and tree.listener is not None:
                    tree.listener.tombstone_registered(entry, tree.clock.now())
        except CorruptionError as exc:
            if not degraded_ok:
                raise
            tree.recovery_errors.append(f"WAL: {exc}")
            tree.degraded = True
            tree._read_only = True
            if tree._wal is not None:
                tree._wal.close()
                tree._wal = None
        if skipped:
            tree.recovery_log.append(
                f"skipped {skipped} WAL record(s) at or below flushed seqno "
                f"{manifest_seqno}"
            )
        tree.verify_invariants()
        # Concurrency starts only after recovery is fully settled: every
        # step above runs on the untouched serial code paths.
        if workers > 1 and not tree._read_only and not tree.degraded:
            tree._start_write_path(workers)
        return tree

    def _restore_from_manifest(self, manifest: dict) -> None:
        # Salt before any file load: the filters rebuilt below must probe
        # through the same keyed digest the tree will use for lookups.  A
        # manifest without the key (pre-salt store, or salting just turned
        # on) keeps the salt chosen at construction time, so an upgraded
        # tree simply rebuilds every recovered filter under its new salt.
        salt_hex = manifest.get("bloom_salt")
        if salt_hex:
            self.bloom_salt = bytes.fromhex(salt_hex)
        self._seqno = manifest["seqno"]
        self._flushed_seqno = manifest.get("flushed_seqno", manifest["seqno"])
        self.clock.advance_to(manifest["clock"])
        self.flush_count = manifest.get("flush_count", 0)
        for level_offset, run_lists in enumerate(manifest["levels"]):
            level = self.level(level_offset + 1)
            for file_ids in run_lists:  # stored newest-first
                files: list[SSTableFile] = []
                for fid in file_ids:
                    try:
                        files.append(self._load_file(fid, level.index))
                    except (CorruptionError, StorageError) as exc:
                        if not self._degraded_ok:
                            raise
                        self.recovery_errors.append(
                            f"sstable {fid} (L{level.index}): {exc}"
                        )
                if files:
                    level.add_oldest_run(Run(files))
                    for file in files:
                        self._register_file(file, level.index)
        self.file_ids.advance_past(manifest["next_file_id"] - 1)
        for row in manifest.get("fences", ()):
            self._install_fence(RangeFence.from_row(row))

    def _load_file(self, file_id: int, level: int = 1) -> SSTableFile:
        assert self._store is not None
        tile_entries, meta = self._store.read_sstable(file_id)
        tiles = [DeleteTile([Page(page) for page in pages]) for pages in tile_entries]
        bloom = build_filters(tiles, self.config, level, self.bloom_salt)
        return SSTableFile(file_id, tiles, bloom, meta.get("created_at", 0))

    # ==================================================================
    # write path
    # ==================================================================
    def put(self, key: Any, value: Any, delete_key: int | None = None) -> None:
        """Insert or update ``key``.

        ``delete_key`` is the secondary attribute used by range deletes
        (defaults to the current tick, i.e. an insertion timestamp).
        """
        self._check_open()
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            self._check_writable()
            wp.apply_batch((("put", key, value, delete_key),))
            return
        now = self.clock.now()
        entry = Entry.put(key, value, self._next_seqno(), now, delete_key)
        self.counters["puts"] += 1
        self.counters["ingested_bytes"] += self.config.entry_bytes(is_tombstone=False)
        self._ingest(entry)

    def delete(self, key: Any) -> None:
        """Logically delete ``key`` by inserting a tombstone.

        The tombstone is *registered* with the lifecycle listener; with
        FADE enabled it is guaranteed to be physically purged within
        ``D_th`` ticks.
        """
        self._check_open()
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            self._check_writable()
            wp.apply_batch((("delete", key),))
            return
        now = self.clock.now()
        entry = Entry.tombstone(key, self._next_seqno(), now)
        self.counters["deletes"] += 1
        self.counters["ingested_bytes"] += self.config.entry_bytes(is_tombstone=True)
        if self.listener is not None:
            self.listener.tombstone_registered(entry, now)
        self._ingest(entry)

    def put_many(self, items: Iterable[tuple]) -> int:
        """Batched :meth:`put`: ``items`` are ``(key, value)`` or
        ``(key, value, delete_key)`` tuples; returns how many were applied.

        Semantically identical to issuing the puts one by one -- same final
        tree shape, counters, compaction log, and simulated I/O -- but the
        per-operation overhead (WAL appends, open/writable checks, call
        layering) is amortized across the batch.  See :meth:`apply_batch`
        for durability semantics.
        """
        return self.apply_batch(("put", *item) for item in items)

    def apply_batch(self, ops: Iterable[tuple]) -> int:
        """Apply a batch of ingest operations; returns how many ran.

        Each op is ``("put", key, value)``, ``("put", key, value,
        delete_key)``, or ``("delete", key)``.  Flush and maintenance
        triggers are evaluated after every operation exactly as in the
        per-op path (both are O(1) checks), so batching never changes
        engine behaviour -- the amortization is in WAL appends (buffered
        and written in one call; entries that flush within the batch are
        durable via their SSTables and never touch the WAL at all) and in
        skipped per-op bookkeeping.

        Durability note: in durable mode the batch is acknowledged when
        this method returns; a crash mid-batch may lose the tail of the
        batch (per-op ``put`` narrows that window to one operation).
        """
        self._check_open()
        self._check_writable()
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            return wp.apply_batch(ops)
        wal = self._wal
        pending: list[Entry] = []
        memtable = self.memtable
        listener = self.listener
        clock = self.clock
        counters = self.counters
        config = self.config
        fade = self._fade
        make_put = Entry.put
        make_tombstone = Entry.tombstone
        clock_now = clock.now
        clock_tick = clock.tick
        memtable_add = memtable.add
        # ``_flush`` drains the skip list in place (never rebinds it), so
        # the fill check can read it directly instead of going through the
        # ``is_full`` property on every operation.
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
                seqno = self._seqno + 1
                self._seqno = seqno
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
                if displaced is not None and displaced.is_tombstone and listener is not None:
                    listener.tombstone_superseded(displaced, now)
                clock_tick()
                count += 1
                # Inline _maybe_flush: same O(1) checks, but entries that
                # flush here are persisted by the flush itself, so their
                # buffered WAL records are dropped unwritten.
                if len(mt_map) >= capacity:
                    pending.clear()
                    self._flush()
                    # The flush drains in place, but the governor may have
                    # retargeted the soft limit mid-batch -- re-read it so
                    # the next fill check sees the live budget.
                    capacity = memtable.capacity
                elif fade is not None and memtable.first_tombstone_time is not None:
                    deadline = fade.buffer_deadline(
                        memtable.first_tombstone_time, self.deepest_nonempty_level()
                    )
                    if clock_now() >= deadline:
                        pending.clear()
                        self._flush()
                        capacity = memtable.capacity
                # Inline maintain()'s fast path: when nothing structural
                # changed and no expiry is due, maintain() would return
                # without planning -- skip even the call.
                if self._maintenance_dirty or (
                    fade is not None and self._fade_deadline_due()
                ):
                    self.maintain()
        finally:
            counters["puts"] += puts
            counters["deletes"] += deletes
            counters["ingested_bytes"] += ingested
            if wal is not None and pending:
                wal.append_many(pending)
        return count

    def _next_seqno(self) -> int:
        self._seqno += 1
        return self._seqno

    def _ingest(self, entry: Entry) -> None:
        self._check_writable()
        if self._wal is not None:
            self._wal.append(entry)
        displaced = self.memtable.add(entry)
        if displaced is not None and displaced.is_tombstone and self.listener is not None:
            self.listener.tombstone_superseded(displaced, self.clock.now())
        self.clock.tick()
        self._maybe_flush()
        self.maintain()

    def _maybe_flush(self) -> None:
        if self.memtable.is_full:
            self._flush()
            return
        # FADE: the buffer holds its own slice of D_th; flush early if the
        # oldest buffered tombstone is about to overstay it.
        if self._fade is not None and self.memtable.first_tombstone_time is not None:
            deadline = self._fade.buffer_deadline(
                self.memtable.first_tombstone_time, self.deepest_nonempty_level()
            )
            if self.clock.now() >= deadline:
                self._flush()

    def set_memtable_budget(self, entries: int) -> None:
        """Retarget the live write-buffer soft limit (advisory).

        Takes effect immediately on the active memtable -- a shrink below
        the current fill simply makes the next per-op flush check fire,
        draining through the normal path (inline serially; rotation into
        the frozen queue under workers>0, whose protocol is untouched) --
        and on every memtable created afterwards
        (:meth:`~repro.lsm.writepath.WritePathController._rotate` sizes
        replacements from this budget).  Never persisted: reopen resets
        to ``config.memtable_entries``.
        """
        if entries < 1:
            raise ValueError(f"memtable budget must be >= 1, got {entries}")
        self.memtable_budget = entries
        self.memtable.capacity = entries

    @property
    def policy(self) -> CompactionStyle:
        """The live compaction policy (mutable via :meth:`set_policy`)."""
        return self.config.policy

    def set_policy(self, style: CompactionStyle) -> bool:
        """Switch the live compaction policy; True when it changed.

        The self-tuning seam: leveling -> tiering/lazy-leveling simply
        relaxes the triggers and takes effect at the next plan, while
        tiering -> leveling leaves multi-run levels the new policy must
        consolidate -- the planner's ordinary ``LEVEL_COLLAPSE`` path
        schedules those merges through the normal executor (FADE
        priority and fence resolution preserved), so no ``exclusive()``
        drain is needed in either direction.

        Unlike the advisory memory budgets, the applied policy is
        **durable tree state**: the switch rewrites the manifest's
        recorded config, so a reopened store keeps its tuned policy.
        """
        self._check_open()
        self._check_writable()
        if not isinstance(style, CompactionStyle):
            raise ConfigError(
                f"set_policy expects a CompactionStyle, got {style!r}"
            )
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            return wp.set_policy(style)
        changed = self._apply_policy_switch(style)
        if changed:
            # Serial mode consolidates inline: drain any transition
            # compactions (tiering -> leveling run collapses) right away.
            self.maintain()
        return changed

    def _apply_policy_switch(self, style: CompactionStyle) -> bool:
        """Rebind the live config to ``style`` and persist it (no-op when
        already current).  The caller holds whatever exclusion the mode
        requires: nothing serially, the writer lock + ``_cv`` in
        concurrent mode (all planning happens under ``_cv``)."""
        if style is self.config.policy:
            return False
        new_config = self.config.with_updates(policy=style)
        self.config = new_config
        self._planner.config = new_config
        if self._fade is not None:
            # FADE reads the policy lazily at plan time and caches D_th
            # separately, so rebinding its config is the entire hand-off
            # -- deadlines, the tracked-file heap, and the delete
            # guarantee are untouched by a policy switch.
            self._fade.config = new_config
        self.policy_switches += 1
        self.last_policy_switch_tick = self.clock.now()
        # The planner's triggers changed shape even though no run did:
        # force the next maintenance pass to evaluate.
        self._maintenance_dirty = True
        self._persist_manifest()
        return True

    def flush(self) -> None:
        """Force the memtable to disk (no-op when empty).

        In concurrent mode this is a full pipeline drain: the active
        memtable rotates, the frozen queue and every in-flight compaction
        complete, and the WAL rotates -- the only point (besides close)
        where it safely can.
        """
        self._check_open()
        self._check_writable()
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            wp.flush()
            return
        if not self.memtable.is_empty:
            self._flush()
            self.maintain()

    def _flush(self) -> None:
        entries = self.memtable.drain()
        if not entries:
            return
        self._flushed_seqno = max(self._flushed_seqno, max(e.seqno for e in entries))
        # Range-tombstone fences resolve buffered data here: shadowed
        # values are dropped before they ever reach a file, exactly as an
        # eager delete purges them from the memtable (the flushed mark
        # above still covers them, so WAL replay never resurrects them
        # into a tree whose fences could have retired meanwhile).
        check = shadow_check(self._fences)
        if check is not None:
            entries = [e for e in entries if not check(e)]
        now = self.clock.now()
        if entries:
            files = build_files(
                entries, self.config, self.file_ids, now, salt=self.bloom_salt
            )
            self.disk.write_pages(sum(f.page_count for f in files), CATEGORY_FLUSH)
            self.level(1).add_newest_run(Run(files))
            for file in files:
                self._register_file(file, 1)
                self._persist_file(file)
        self.flush_count += 1
        if self._fences:
            self._retire_resolved_fences()
        # Write-ordering protocol: the WAL may only be rotated once the
        # flushed entries are durable through the *published* manifest.
        # Rotating first would leave a crash window in which the entries
        # exist neither in the WAL nor in any manifest-referenced run.
        self._persist_manifest()
        if self._wal is not None:
            self._wal.truncate()

    # ==================================================================
    # maintenance (compaction loop)
    # ==================================================================
    def maintain(self) -> int:
        """Run compactions until no trigger fires; returns how many ran.

        Saturation/structural tasks drain first so FADE always plans
        against a structurally quiescent tree; expiry tasks then run until
        no deadline is due.  All work is synchronous and instantaneous in
        simulated time (the clock only moves on ingestion).

        Cheap-trigger fast path: the saturation planner is a pure function
        of the level structure, so if nothing structural changed since the
        last quiescent pass (flush, compaction, secondary delete) and no
        FADE deadline has come due, the full planner evaluation is skipped
        -- an O(1) flag check plus an O(1) heap peek instead of a walk over
        every level.  This is what makes per-operation maintenance free.

        In concurrent mode maintenance is continuous (the pump runs after
        every install), so this degrades to a barrier: wait until the
        background machinery is quiescent, then report 0 (the work is
        attributed to the workers, not to this call).
        """
        self._check_open()
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            wp.barrier()
            return 0
        if not self._maintenance_dirty and not self._fade_deadline_due():
            return 0
        executed = 0
        retired = 0
        while True:
            task = self._planner.plan(self)
            if task is None and self._fade is not None:
                task = self._fade.plan(self)
            if task is None:
                if (
                    self._fences
                    and self._fade is not None
                    and self._fade.fence_overdue(self.clock.now())
                ):
                    # An overdue fence the compaction planner cannot act
                    # on: its remaining shadowed data is buffered (the
                    # flush filter drops it, after which the fence can
                    # retire) or already gone (retire directly).  Both
                    # branches strictly shrink the overdue set, so the
                    # retry terminates.
                    if not self.memtable.is_empty and self._buffer_shadowable():
                        self._flush()
                        continue
                    if self._retire_resolved_fences():
                        retired += 1
                        continue
                break
            event = execute_task(task, self)
            self.compaction_log.append(event)
            executed += 1
        if executed and self._fences:
            retired += self._retire_resolved_fences()
        # Quiescent: no saturation trigger fires and no expiry is due, so
        # the next maintain() may skip planning until structure changes.
        self._maintenance_dirty = False
        if executed or retired:
            self._persist_manifest()
        return executed

    def _fade_deadline_due(self) -> bool:
        """True when the earliest FADE deadline is at or before now (O(1))."""
        if self._fade is None:
            return False
        deadline = self._fade.next_deadline()
        return deadline is not None and deadline <= self.clock.now()

    def full_compaction(self) -> CompactionEvent | None:
        """Merge the entire tree into a single bottom run, purging deletes.

        This is the expensive "full tree merge" the paper notes is the
        baseline's only way to force deletes out; exposed both as a user
        utility and as the comparator in experiment F5.
        """
        self._check_open()
        self._check_writable()
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            with wp.exclusive():
                return self.full_compaction()
        self.flush()
        inputs = [
            TaskInput(level.index, run, list(run.files))
            for level in self.iter_levels()
            for run in level.runs
        ]
        if not inputs:
            return None
        target = max(self.deepest_nonempty_level(), 1)
        task = CompactionTask(
            reason=CompactionReason.LEVEL_COLLAPSE,
            inputs=inputs,
            target_level=target,
            placement=OutputPlacement.NEW_RUN,
            drop_tombstones=True,
            notes="full tree compaction",
        )
        event = execute_task(task, self)
        self.compaction_log.append(event)
        if self._fences:
            self._retire_resolved_fences()
        self._persist_manifest()
        return event

    # ==================================================================
    # read path
    # ==================================================================
    def get(self, key: Any, default: Any = None) -> Any:
        """Point lookup; returns ``default`` for missing or deleted keys."""
        self._check_open()
        self.counters["gets"] += 1
        entry = self._get_entry(key)
        if entry is None or entry.is_tombstone:
            return default
        self.counters["gets_found"] += 1
        return entry.value

    def contains(self, key: Any) -> bool:
        """True when ``key`` currently maps to a live value."""
        self._check_open()
        entry = self._get_entry(key)
        return entry is not None and entry.is_put

    def _get_entry(self, key: Any) -> Entry | None:
        """The pruned point lookup (the tentpole of the read overhaul).

        Per run, in cost order: (1) the run's ``[min_key, max_key]`` span
        and the file/tile fence pointers -- pure in-memory comparisons --
        skip runs that cannot hold the key; (2) when the fences name a
        single candidate page and it is already cached, the lookup is
        answered from it directly (a resident page is cheaper than a
        filter probe, and exact); (3) otherwise the file's Bloom filter
        is probed with a hash pair computed at most *once* per lookup
        (and only when some run survives the range check, so out-of-range
        probes never pay the digest); (4) only then does the file descend
        to pages, through the shared cache-aware reader.  Level-1 pages --
        the hottest, most-churned data -- are inserted pinned.  Every
        skip/probe is accounted per level (see :meth:`read_stats`).

        Concurrent mode routes through the controller's published
        snapshot (active memtable -> frozen queue -> versioned levels);
        the two-instruction guard below is the read path's entire
        concurrency cost in serial mode.
        """
        wp = self._wp
        if wp is not None:
            return wp.get_entry(key)
        fences = self._fences
        check = shadow_check(fences)
        entry = self.memtable.get(key)
        if entry is not None:
            if check is None or not check(entry):
                return entry
            # Fence-shadowed: the buffered version is deleted, but an
            # older out-of-window version may survive below -- descend.
        hashed = None
        reader = self._reader
        cache_get = self.cache.get
        # With classical single-page tiles every surviving lookup descends
        # to exactly one fence-named page, so the descent is inlined below
        # (no file.get / read_page frames on the hottest path).
        single_page = self.config.pages_per_tile == 1
        for level in self._levels:
            pinned = level.index == 1
            for run in level.runs:  # newest first
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
                # Fence check ordered before the Bloom probe and page
                # descent: a file whose every entry is shadowed by a
                # range-tombstone fence serves nothing, so the lookup
                # skips its I/O entirely.
                if check is not None and file_fully_shadowed(file, fences):
                    level.lookup_skips_fence += 1
                    continue
                if hashed is None:
                    hashed = key_hash_pair(key, self.bloom_salt)
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
                        # One page per tile => the flat page index IS the
                        # tile index.  Same accounting as read_page, with
                        # no wrapper frames.
                        page = cache_get(file.file_id, tidx)
                        if page is None:
                            self.disk.read_pages(1, reader.category)
                            page = pages[0]
                            self.cache.put(file.file_id, tidx, page, pinned)
                            found = page.get(key)
                            if found is None:
                                # Negative-lookup guard (hardened caches
                                # only): this page was admitted solely to
                                # answer a bloom false positive -- drop it
                                # before a flood of such misses evicts the
                                # hot set.  No-op when hardening is off.
                                self.cache.note_negative(file.file_id, tidx)
                        else:
                            level.lookup_cache_direct += 1
                            found = page.get(key)
                else:
                    found = file.get(key, reader, pinned, None, hashed)
                if found is not None:
                    if check is not None and check(found):
                        # Shadowed by a fence: keep descending -- an older
                        # out-of-window version below may still be live.
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
        """Live ``(key, value)`` pairs with ``lo <= key <= hi``.

        Ascending by default; ``reverse=True`` walks from ``hi`` down to
        ``lo`` (``limit`` then takes the topmost keys).  Lazy: page reads
        are charged as the iterator is consumed.

        The fused path: runs whose key span misses ``[lo, hi]`` are pruned
        up front without I/O (at call time), each surviving run streams
        per-tile blocks with batched prefetching (:meth:`Run.scan_blocks`),
        and :func:`scan_fused` merges the blocks, skipping
        tombstone-shadowed keys without materializing them and
        early-exiting on ``limit``.  The returned iterator is a C-level
        ``map`` over the fused merge -- no per-row Python frame here.
        """
        self._check_open()
        self.counters["scans"] += 1
        if limit is not None and limit <= 0:
            return iter(())  # LIMIT 0: empty, not "unlimited"
        wp = self._wp
        if wp is not None:
            return wp.scan(lo, hi, limit=limit, reverse=reverse)
        reader = self._reader
        buffered = list(self.memtable.range(lo, hi))
        if reverse:
            buffered.reverse()
        sources: list = []
        if buffered:
            sources.append((buffered,))
        for level in self._levels:
            for run in level.runs:
                if run.max_key < lo or run.min_key > hi:
                    level.scan_runs_pruned += 1
                    continue
                sources.append(run.scan_blocks(lo, hi, reader, reverse))
        if not sources:
            return iter(())
        return map(
            _ENTRY_PAIR,
            scan_fused(
                sources,
                limit=limit,
                reverse=reverse,
                drop=shadow_check(self._fences),
            ),
        )

    def read_stats(self) -> dict[str, Any]:
        """Read-path observability: cache stats + per-level pruning counters.

        Mirrors the cache's hit/miss/eviction totals into
        ``tree.counters`` (so any counters dump carries them) and returns
        the full picture: the ``cache`` section plus one row per level
        with probe/skip/serve counts -- how often fence pointers and Bloom
        filters saved page I/O.
        """
        cache_stats = self.cache.stats()
        counters = self.counters
        counters["cache_hits"] = cache_stats["hits"]
        counters["cache_misses"] = cache_stats["misses"]
        counters["cache_evictions"] = cache_stats["evictions"]
        levels = [
            {
                "level": level.index,
                "lookup_probes": level.lookup_probes,
                "lookup_skips_range": level.lookup_skips_range,
                "lookup_skips_bloom": level.lookup_skips_bloom,
                "lookup_skips_fence": level.lookup_skips_fence,
                "lookup_serves": level.lookup_serves,
                "lookup_cache_direct": level.lookup_cache_direct,
                "scan_runs_pruned": level.scan_runs_pruned,
            }
            for level in self._levels
        ]
        return {"cache": cache_stats, "levels": levels}

    # ==================================================================
    # structure accessors
    # ==================================================================
    def level(self, index: int) -> Level:
        """Level ``index`` (1-based), created on demand."""
        if index < 1:
            raise ValueError(f"on-disk levels are 1-based, got {index}")
        while len(self._levels) < index:
            self._levels.append(
                Level(len(self._levels) + 1, observer=self._on_structure_change)
            )
        return self._levels[index - 1]

    def _on_structure_change(self) -> None:
        """A level's run list changed: invalidate structure-derived caches."""
        self._deepest_cache = None
        self._maintenance_dirty = True

    def iter_levels(self) -> Iterator[Level]:
        """Existing levels, shallow to deep (some may be empty)."""
        return iter(self._levels)

    def deepest_nonempty_level(self) -> int:
        """Index of the deepest level holding data, or 0 when none do.

        O(1) between structural changes: the scan result is cached and
        invalidated by the level observer on any run-list mutation.
        """
        cached = self._deepest_cache
        if cached is None:
            cached = 0
            for level in reversed(self._levels):
                if level.runs:
                    cached = level.index
                    break
            self._deepest_cache = cached
        return cached

    @property
    def entry_count_on_disk(self) -> int:
        return sum(level.entry_count for level in self._levels)

    @property
    def tombstone_count_on_disk(self) -> int:
        return sum(level.tombstone_count for level in self._levels)

    @property
    def page_count_on_disk(self) -> int:
        return sum(level.page_count for level in self._levels)

    # ==================================================================
    # file lifecycle hooks (executor / secondary deletes call these)
    # ==================================================================
    def on_file_added(self, file: SSTableFile, level_index: int) -> None:
        self._register_file(file, level_index)
        self._persist_file(file)

    def on_file_removed(self, file: SSTableFile, level_index: int) -> None:
        if self._fade is not None:
            self._fade.file_removed(file.file_id)
        if self._store is not None and not self._read_only:
            # Defer the physical unlink until the next manifest publish:
            # the current manifest still references this file, and it must
            # stay readable for recovery until a manifest without it is
            # durable on disk.
            self._doomed_files.append(file.file_id)

    def on_file_moved(self, file: SSTableFile, from_level: int, to_level: int) -> None:
        """A trivial move: same file object, new depth.

        The durable copy needs no rewrite (the manifest records the new
        level); FADE deadlines are depth-dependent, so re-register.
        """
        if self._fade is not None:
            self._fade.file_removed(file.file_id)
            self._fade.file_added(file, to_level, self.deepest_nonempty_level())

    def _register_file(self, file: SSTableFile, level_index: int) -> None:
        if self._fade is not None:
            self._fade.file_added(file, level_index, self.deepest_nonempty_level())

    def _persist_file(self, file: SSTableFile) -> None:
        if self._store is None or self._read_only:
            return
        tiles = [[page.entries for page in tile.pages] for tile in file.tiles]
        self._store.write_sstable(file.file_id, tiles, {"created_at": file.created_at})

    def _persist_manifest(self) -> None:
        if self._store is None or self._read_only:
            return
        levels = [
            [[f.file_id for f in run.files] for run in level.runs] for level in self._levels
        ]
        manifest = {
            "levels": levels,
            "next_file_id": self.file_ids.peek(),
            "seqno": self._seqno,
            "flushed_seqno": self._flushed_seqno,
            "clock": self.clock.now(),
            "flush_count": self.flush_count,
            "config": self.config.to_dict(),
        }
        if self._fences:
            # Back-compat: the key is absent while no fence is live, so
            # manifests from fence-free trees are byte-identical to old
            # ones and old manifests restore cleanly.
            manifest["fences"] = [f.to_row() for f in self._fences]
        if self.bloom_salt is not None:
            # Same back-compat idiom: unsalted trees write manifests
            # byte-identical to pre-salt ones.
            manifest["bloom_salt"] = self.bloom_salt.hex()
        self._store.write_manifest(manifest)
        # The new manifest no longer references the doomed files; their
        # physical deletion is now safe (and crash-idempotent: a crash
        # mid-loop leaves unreferenced files that startup GC removes).
        if self._doomed_files:
            doomed, self._doomed_files = self._doomed_files, []
            for file_id in doomed:
                self._store.delete_sstable(file_id)

    def _sync_wal_with_memtable(self) -> None:
        """Atomically rewrite the WAL to hold exactly the buffered entries.

        Called after an operation purges entries from the memtable without
        flushing it (secondary range deletes): replaying the old log would
        resurrect the purged values.  Ordered *after* the manifest publish
        so a crash in between merely un-acks the purge (the old log and
        the old buffered values come back together).
        """
        if self._wal is None:
            return
        records = list(self.memtable)
        # Live fences keep their WAL belt across the rewrite (they are
        # also in the manifest, but the WAL copy covers the crash window
        # of the *next* manifest publish).
        records.extend(f.to_entry() for f in self._fences)
        self._wal.rewrite(records)

    # ==================================================================
    # range-tombstone fences (lazy secondary range deletes)
    # ==================================================================
    @property
    def fences(self) -> tuple[RangeFence, ...]:
        """The live range-tombstone fences (a snapshot; oldest first)."""
        return self._fences

    def append_range_fence(self, lo: int, hi: int) -> RangeFence:
        """Durably record a range-tombstone fence over ``[lo, hi]``.

        O(1) in the amount of covered data: one WAL append plus one
        manifest publish, no file rewrites and no ``exclusive()`` section.
        In concurrent mode the controller wraps this under its write lock
        (see :meth:`WritePathController.append_range_fence`); the serial
        path below is the whole protocol.

        Durability order: WAL first (covers a crash during the manifest
        write), then the in-memory install, then the manifest (covers
        every later WAL truncation -- a flush or close may rotate the log
        at any time, and the fence must survive that).
        """
        self._check_open()
        self._check_writable()
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            return wp.append_range_fence(lo, hi)
        fence = RangeFence(lo, hi, self._next_seqno(), self.clock.now())
        if self._wal is not None:
            self._wal.append(fence.to_entry())
        self._install_fence(fence)
        self._persist_manifest()
        return fence

    def _install_fence(self, fence: RangeFence) -> None:
        """Attach ``fence`` to the live set (no durability side effects)."""
        self._fences = self._fences + (fence,)
        # The read path changed shape even though no run did: force the
        # next maintenance pass to evaluate (fence resolution may already
        # be plannable) and drop the structure-derived fast path.
        self._maintenance_dirty = True
        if self._fade is not None:
            self._fade.fence_added(fence, self.deepest_nonempty_level())

    def _buffer_shadowable(self, buffers: Iterable[Iterable[Entry]] = ()) -> bool:
        """True when the memtable (or ``buffers``) holds a shadowed entry."""
        check = shadow_check(self._fences)
        if check is None:
            return False
        # Snapshot the sidecar dict, not the skip-list: background
        # threads audit this while a writer may be inserting, and a
        # dict-values copy is atomic under the GIL.
        for entry in list(self.memtable._map._index.values()):
            if check(entry):
                return True
        for buffer in buffers:
            for entry in buffer:
                if check(entry):
                    return True
        return False

    def _fence_unresolved(
        self, fence: RangeFence, buffers: Iterable[Iterable[Entry]] = ()
    ) -> bool:
        """True while some live entry is still shadowed by ``fence``.

        ``buffers`` lets the concurrent controller include its frozen
        memtables in the audit.
        """
        lo, hi, seq = fence.lo, fence.hi, fence.seqno
        # Dict snapshot for the same thread-safety reason as
        # _buffer_shadowable above.
        for entry in list(self.memtable._map._index.values()):
            if entry.is_put and entry.seqno < seq and lo <= entry.delete_key <= hi:
                return True
        for buffer in buffers:
            for entry in buffer:
                if entry.is_put and entry.seqno < seq and lo <= entry.delete_key <= hi:
                    return True
        for level in self._levels:
            for run in level.runs:
                for file in run.files:
                    if file_shadowable(file, fence):
                        return True
        return False

    def _retire_resolved_fences(
        self, buffers: Iterable[Iterable[Entry]] = ()
    ) -> int:
        """Drop fences no remaining entry is shadowed by; returns how many.

        The caller is responsible for publishing the manifest afterwards
        (every call site already sits on a publish path).
        """
        fences = self._fences
        if not fences:
            return 0
        live = tuple(f for f in fences if self._fence_unresolved(f, buffers))
        if len(live) == len(fences):
            return 0
        self._fences = live
        if self._fade is not None:
            kept = {f.seqno for f in live}
            for fence in fences:
                if fence.seqno not in kept:
                    self._fade.fence_removed(fence.seqno)
        return len(fences) - len(live)

    # ==================================================================
    # lifecycle & utilities
    # ==================================================================
    def advance_time(self, ticks: int) -> None:
        """Model an idle period of ``ticks``.

        The clock is advanced *deadline by deadline*: whenever a FADE file
        deadline or the buffer's tombstone deadline falls inside the
        window, time stops there, the due maintenance runs, and only then
        does time continue -- exactly as a background compaction thread
        would behave.  Jumping the whole window at once would make expiry
        compactions appear late and violate ``D_th`` spuriously.
        """
        self._check_open()
        self._check_writable()
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            wp.advance_time(ticks)
            return
        if ticks < 0:
            raise ValueError(f"cannot advance time backwards ({ticks})")
        target = self.clock.now() + ticks
        while True:
            now = self.clock.now()
            if now >= target:
                break
            stop = target
            if self._fade is not None:
                next_deadline = self._fade.next_deadline()
                if next_deadline is not None and now < next_deadline < stop:
                    stop = next_deadline
                if self.memtable.first_tombstone_time is not None:
                    buffer_deadline = self._fade.buffer_deadline(
                        self.memtable.first_tombstone_time, self.deepest_nonempty_level()
                    )
                    if now < buffer_deadline < stop:
                        stop = buffer_deadline
            self.clock.advance_to(stop)
            self._maybe_flush()
            self.maintain()

    def close(self) -> None:
        """Flush state to disk (durable mode) and refuse further use.

        In concurrent mode the controller drains and stops its workers
        first; a pending background error (e.g. an injected crash inside
        a worker) is re-raised here, after the WAL handle is closed and
        the tree is marked closed, exactly as a crash inside a serial
        close would surface.
        """
        if self._closed:
            return
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            try:
                wp.close()
            finally:
                # Clear the controller only after its workers have
                # stopped: a reader racing with close keeps taking the
                # published-snapshot path while the drain is still
                # installing flushes/compactions, instead of iterating
                # half-installed levels through the serial body.
                self._wp = None
                if self._wal is not None:
                    self._wal.close()
                self._closed = True
            return
        if self._store is not None and not self._read_only and not self.memtable.is_empty:
            self._flush()
            self.maintain()
        if self._wal is not None:
            self._wal.close()
        self._closed = True

    def __enter__(self) -> "LSMTree":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosedError("this tree has been closed")

    def _check_writable(self) -> None:
        if self._read_only:
            raise EngineClosedError("this tree was opened read-only")

    @property
    def fade(self) -> Any:
        """The FADE scheduler, or None for a baseline tree."""
        return self._fade

    # ==================================================================
    # concurrent write path
    # ==================================================================
    def _start_write_path(self, workers: int) -> None:
        """Attach and start the background flush/compaction controller."""
        from repro.lsm.writepath import WritePathController

        self._wp = WritePathController(self, workers)
        self._wp.start()

    @property
    def write_path(self) -> Any:
        """The concurrent write-path controller, or None in serial mode."""
        return self._wp

    def write_barrier(self) -> None:
        """Wait for all background flushes and compactions (no-op serially)."""
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            wp.barrier()

    def write_stats(self) -> dict[str, Any]:
        """Write-path observability (see :mod:`repro.metrics.writepath`).

        Serial trees report the inline equivalents (every flush and
        compaction ran on the caller's thread; there is no queue and
        there are no stalls), so dashboards render identically in both
        modes.
        """
        wp = self._wp
        if wp is not None:
            return wp.report()
        return {
            "mode": "serial",
            "workers": 1,
            "rotations": self.flush_count,
            "queue_depth": 0,
            "queue_peak": 0,
            "flush_jobs": self.flush_count,
            "flush_memtables": self.flush_count,
            "flush_entries": 0,
            "flush_wall_ms": 0.0,
            "flush_max_ms": 0.0,
            "compaction_jobs": len(self.compaction_log),
            "compaction_inflight": 0,
            "compaction_inflight_peak": 0,
            "compaction_wall_ms": 0.0,
            "compaction_max_ms": 0.0,
            "soft_delays": 0,
            "hard_stalls": 0,
            "stall_seconds": 0.0,
            "pages_written_by_worker": {},
        }

    def verify_invariants(self) -> None:
        """Recovery-time integrity check over the whole tree.

        Raises :class:`~repro.errors.InvariantViolationError` when the
        recovered structure is inconsistent: duplicate file ids, runs
        whose files overlap (level ordering broken), cached entry /
        tombstone / page accounting that disagrees with the actual files,
        or sequence numbers / write times beyond the recovered high-water
        marks.  Run by :meth:`open` on every recovery, and available to
        callers as a cheap post-hoc audit.  Unlike
        :meth:`check_invariants` (an exhaustive assert-based test helper)
        this never uses ``assert``, so it works under ``python -O``.

        In concurrent mode the background machinery is drained first so
        the walk sees a quiescent structure (entries parked in frozen
        memtables are flushed by the drain and audited as usual).
        """
        wp = self._wp
        if wp is not None and not wp.owns_inline():
            wp.barrier()
        seen_ids: set[int] = set()
        max_seqno = 0
        max_write_time = 0
        for level in self._levels:
            entries, tombstones, pages = level.recompute_counts()
            if (level.entry_count, level.tombstone_count, level.page_count) != (
                entries,
                tombstones,
                pages,
            ):
                raise InvariantViolationError(
                    f"L{level.index} accounting mismatch: cached "
                    f"({level.entry_count}, {level.tombstone_count}, "
                    f"{level.page_count}) != actual ({entries}, {tombstones}, {pages})"
                )
            for run in level.runs:
                ordered = sorted(run.files, key=lambda f: f.min_key)
                for left, right in zip(ordered, ordered[1:]):
                    if right.min_key <= left.max_key:
                        raise InvariantViolationError(
                            f"L{level.index}: files {left.file_id} and "
                            f"{right.file_id} overlap within one run"
                        )
                for file in run.files:
                    if file.file_id in seen_ids:
                        raise InvariantViolationError(
                            f"file id {file.file_id} appears twice in the tree"
                        )
                    seen_ids.add(file.file_id)
                    for entry in file.iter_all_entries():
                        if entry.seqno > max_seqno:
                            max_seqno = entry.seqno
                        if entry.write_time > max_write_time:
                            max_write_time = entry.write_time
        for entry in self.memtable:
            if entry.seqno > max_seqno:
                max_seqno = entry.seqno
            if entry.write_time > max_write_time:
                max_write_time = entry.write_time
        if max_seqno > self._seqno:
            raise InvariantViolationError(
                f"entry seqno {max_seqno} exceeds the recovered high-water "
                f"mark {self._seqno}"
            )
        for fence in self._fences:
            if fence.seqno > self._seqno:
                raise InvariantViolationError(
                    f"fence seqno {fence.seqno} exceeds the recovered "
                    f"high-water mark {self._seqno}"
                )
            if fence.lo > fence.hi:
                raise InvariantViolationError(
                    f"fence window inverted: [{fence.lo}, {fence.hi}]"
                )
        if max_write_time > self.clock.now():
            raise InvariantViolationError(
                f"entry write_time {max_write_time} is in the future "
                f"(clock at {self.clock.now()})"
            )

    def check_invariants(self) -> None:
        """Deep structural self-check (tests; AssertionError on failure)."""
        for level in self._levels:
            # Cache coherence: the incremental counters must equal a fresh
            # recomputation from the (immutable) files at all times.
            entries, tombstones, pages = level.recompute_counts()
            assert level.entry_count == entries, (
                f"L{level.index} cached entry_count {level.entry_count} != {entries}"
            )
            assert level.tombstone_count == tombstones, (
                f"L{level.index} cached tombstone_count "
                f"{level.tombstone_count} != {tombstones}"
            )
            assert level.page_count == pages, (
                f"L{level.index} cached page_count {level.page_count} != {pages}"
            )
            for run in level.runs:
                assert run.entry_count == sum(f.entry_count for f in run.files)
                assert run.tombstone_count == sum(f.tombstone_count for f in run.files)
                assert run.page_count == sum(f.page_count for f in run.files)
                for file in run.files:
                    file.check_invariants()
        fresh_deepest = max(
            (level.index for level in self._levels if level.runs), default=0
        )
        assert self.deepest_nonempty_level() == fresh_deepest, (
            f"cached deepest level {self.deepest_nonempty_level()} != {fresh_deepest}"
        )
        # Per-key version ordering: shallower copies must be newer.
        best_seqno: dict[Any, int] = {}
        for entry in self.memtable:
            best_seqno[entry.key] = entry.seqno
        for level in self._levels:
            level_best: dict[Any, int] = {}
            for run in level.runs:
                for file in run.files:
                    for entry in file.iter_all_entries():
                        prev = best_seqno.get(entry.key)
                        assert prev is None or entry.seqno < prev, (
                            f"key {entry.key!r}: seqno {entry.seqno} at L{level.index} "
                            f"not older than {prev} above"
                        )
                        existing = level_best.get(entry.key)
                        if existing is None or entry.seqno > existing:
                            level_best[entry.key] = entry.seqno
            best_seqno.update(level_best)
