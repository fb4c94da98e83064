"""Compaction execution.

One executor serves every strategy (baseline and FADE): it charges the
simulated disk for the merge's sequential reads and writes, resolves
versions with :func:`~repro.lsm.iterator.merge_resolve`, optionally purges
winning tombstones, rebuilds output files in the configured layout (so KiWi
weaving is re-established on every compaction, exactly as in the paper),
and splices the level structure.

The executor is also where the delete-persistence lifecycle is observed:

* a tombstone shadowed by a newer version is reported **superseded**
  (the delete became moot);
* a winning tombstone dropped at the bottommost level is reported
  **persisted** -- this is the event whose latency the paper bounds with
  ``D_th``.

Execution is split into two phases so the concurrent write path
(:mod:`repro.lsm.writepath`) can run the expensive half off the structure
lock:

* :func:`merge_task` -- reads inputs, resolves versions, builds the output
  files, and charges the device.  It touches no level structure, so any
  number of merges over *disjoint* levels may run concurrently.
* :func:`install_task` -- detaches the consumed files and splices the
  output into the levels.  It mutates shared structure and must run under
  the tree's install lock (trivially satisfied in serial mode).

:func:`execute_task` composes the two and is bit-identical to the old
single-phase executor; the serial engine keeps calling it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.lsm.entry import Entry, EntryKind
from repro.lsm.iterator import merge_resolve_list
from repro.lsm.run import Run, SSTableFile, build_files
from repro.lsm.compaction.task import CompactionTask, OutputPlacement
from repro.storage.disk import CATEGORY_COMPACTION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.tree import LSMTree
    from repro.core.tracker import DeleteLifecycleListener


@dataclass(frozen=True)
class CompactionEvent:
    """What one executed compaction did (appended to the tree's log)."""

    reason: str
    source_level: int
    target_level: int
    entries_in: int
    entries_out: int
    tombstones_dropped: int
    tombstones_superseded: int
    pages_read: int
    pages_written: int
    output_file_ids: tuple[int, ...]
    tick: int
    #: Entries dropped because a range-tombstone fence shadowed them --
    #: the deferred physical work of a lazy secondary range delete,
    #: resolved (and charged) here rather than at call time.
    fence_resolved: int = 0


@dataclass
class MergedOutput:
    """The result of :func:`merge_task`, awaiting :func:`install_task`."""

    new_files: list[SSTableFile]
    entries_out: int
    tombstones_dropped: int
    tombstones_superseded: int
    pages_read: int
    pages_written: int
    tick: int
    fence_resolved: int = 0


def execute_task(task: CompactionTask, tree: "LSMTree") -> CompactionEvent:
    """Run ``task`` against ``tree`` and return what happened."""
    if task.trivial_move:
        return _execute_trivial_move(task, tree, tree.clock.now())
    merged = merge_task(task, tree)
    return install_task(task, tree, merged)


def merge_task(
    task: CompactionTask,
    tree: "LSMTree",
    listener: "DeleteLifecycleListener | None" = None,
    now: int | None = None,
) -> MergedOutput:
    """Phase 1: read, merge, and build output files (no structure access).

    ``listener`` overrides ``tree.listener`` (the concurrent executor
    passes a lock-wrapped listener so tracker state stays consistent when
    several merges report lifecycle events at once).
    """
    if now is None:
        now = tree.clock.now()
    if listener is None:
        listener = tree.listener

    # -- charge the sequential read of every input page -----------------
    pages_read = task.input_pages
    if pages_read:
        tree.disk.read_pages(pages_read, CATEGORY_COMPACTION)

    # -- merge, observing the tombstone lifecycle -----------------------
    superseded = 0
    tombstone_kind = EntryKind.TOMBSTONE

    def on_shadowed(loser: Entry, winner: Entry) -> None:
        nonlocal superseded
        if loser.kind is tombstone_kind:
            superseded += 1
            if listener is not None:
                listener.tombstone_superseded(loser, now)

    # Each source is materialized as one flat list: compaction has already
    # paid for every input page, and flat lists iterate far faster through
    # the merge than a tower of per-tile generators.
    sources: list[Iterable[Entry]] = []
    for inp in task.inputs:
        if len(inp.files) == 1:
            sources.append(inp.files[0].all_entries())
        else:
            flat: list[Entry] = []
            for f in inp.files:
                flat.extend(f.all_entries())
            sources.append(flat)
    # Range-tombstone fences resolve here: shadowed entries are removed
    # from each input *before* version resolution, exactly as an eager
    # delete physically removed them from the files -- so an older
    # out-of-window version in the same merge still wins its key, and
    # the rewrite cost lands in CATEGORY_COMPACTION where it belongs.
    fence_resolved = 0
    fence_drop = tree.fences.check
    if fence_drop is not None:
        filtered: list[Iterable[Entry]] = []
        for source in sources:
            kept = [e for e in source if not fence_drop(e)]
            fence_resolved += len(source) - len(kept)
            filtered.append(kept)
        sources = filtered
    resolved = merge_resolve_list(sources, on_shadowed)
    dropped = 0
    if task.drop_tombstones:
        out_entries: list[Entry] = []
        for entry in resolved:
            if entry.kind is tombstone_kind:
                dropped += 1
                if listener is not None:
                    listener.tombstone_persisted(entry, now)
            else:
                out_entries.append(entry)
    else:
        out_entries = resolved

    # -- build and charge the output -------------------------------------
    new_files = (
        build_files(
            out_entries,
            tree.config,
            tree.file_ids,
            now,
            level=task.target_level,
            salt=tree.bloom_salt,
        )
        if out_entries
        else []
    )
    pages_written = sum(f.page_count for f in new_files)
    if pages_written:
        tree.disk.write_pages(pages_written, CATEGORY_COMPACTION)

    return MergedOutput(
        new_files=new_files,
        entries_out=len(out_entries),
        tombstones_dropped=dropped,
        tombstones_superseded=superseded,
        pages_read=pages_read,
        pages_written=pages_written,
        tick=now,
        fence_resolved=fence_resolved,
    )


def install_task(
    task: CompactionTask, tree: "LSMTree", merged: MergedOutput
) -> CompactionEvent:
    """Phase 2: splice the merge output into the level structure.

    Mutates levels, the block cache, and the FADE/tracker registries --
    callers in concurrent mode must hold the tree's install lock.
    """
    new_files = merged.new_files

    # -- detach consumed files -------------------------------------------
    for inp in task.inputs:
        level = tree.level(inp.level_index)
        consumed = {f.file_id for f in inp.files}
        remaining = [f for f in inp.run.files if f.file_id not in consumed]
        # Invalidate (and permanently retire, see BlockCache) the inputs'
        # cached pages *before* detaching them from the level: a lock-free
        # observer then never sees a file that is gone from the structure
        # but still present in the cache, and a reader holding a stale
        # published snapshot cannot re-insert the dead pages afterwards.
        for file in inp.files:
            tree.cache.invalidate_file(file.file_id)
        level.replace_run(inp.run, Run(remaining) if remaining else None)
        for file in inp.files:
            tree.on_file_removed(file, inp.level_index)

    # -- install the output ------------------------------------------------
    if new_files:
        target = tree.level(task.target_level)
        if task.placement is OutputPlacement.MERGE_INTO_TARGET_RUN and target.runs:
            if len(target.runs) != 1:
                raise AssertionError(
                    f"MERGE_INTO_TARGET_RUN expects a leveled target, found "
                    f"{len(target.runs)} runs in level {task.target_level}"
                )
            existing = target.runs[0]
            target.replace_run(existing, Run(existing.files + new_files))
        else:
            target.add_newest_run(Run(new_files))
        for file in new_files:
            tree.on_file_added(file, task.target_level)

    event = CompactionEvent(
        reason=task.reason.value,
        source_level=task.source_level,
        target_level=task.target_level,
        entries_in=task.input_entries,
        entries_out=merged.entries_out,
        tombstones_dropped=merged.tombstones_dropped,
        tombstones_superseded=merged.tombstones_superseded,
        pages_read=merged.pages_read,
        pages_written=merged.pages_written,
        output_file_ids=tuple(f.file_id for f in new_files),
        tick=merged.tick,
        fence_resolved=merged.fence_resolved,
    )
    return event


def _execute_trivial_move(
    task: CompactionTask, tree: "LSMTree", now: int
) -> CompactionEvent:
    """Reassign the input files to the target level without touching data.

    RocksDB calls this a trivial move: when the moved key range has no
    overlap at the destination, compaction is pure metadata -- no merge,
    no device I/O.  Lazy leveling's relocation of an outgrown last level
    uses this, as does any leveling move whose range is clear below.
    """
    (inp,) = task.inputs
    target = tree.level(task.target_level)
    for run in target.runs:
        for file in inp.files:
            if run.overlapping_files(file.min_key, file.max_key):
                raise AssertionError(
                    f"trivial move of file {file.file_id} overlaps data in "
                    f"level {task.target_level}"
                )

    source_level = tree.level(inp.level_index)
    consumed = {f.file_id for f in inp.files}
    remaining = [f for f in inp.run.files if f.file_id not in consumed]
    source_level.replace_run(inp.run, Run(remaining) if remaining else None)
    for file in inp.files:
        # Re-register at the new depth (FADE deadlines depend on the
        # level); the file object, its id, and its cached pages are reused.
        tree.on_file_moved(file, inp.level_index, task.target_level)

    moved_run = Run(list(inp.files))
    if task.placement is OutputPlacement.MERGE_INTO_TARGET_RUN and target.runs:
        if len(target.runs) != 1:
            raise AssertionError(
                "MERGE_INTO_TARGET_RUN expects a leveled target for a trivial move"
            )
        existing = target.runs[0]
        target.replace_run(existing, Run(existing.files + list(inp.files)))
    else:
        target.add_newest_run(moved_run)

    return CompactionEvent(
        reason=task.reason.value,
        source_level=task.source_level,
        target_level=task.target_level,
        entries_in=task.input_entries,
        entries_out=task.input_entries,
        tombstones_dropped=0,
        tombstones_superseded=0,
        pages_read=0,
        pages_written=0,
        output_file_ids=tuple(f.file_id for f in inp.files),
        tick=now,
    )
