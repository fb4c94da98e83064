"""KiWi in action: secondary range deletes.

The paper's second problem: LSM engines can only delete on the sort key.
Deleting on another attribute (the *delete key*, e.g. a creation timestamp
-- "purge everything older than 30 days") classically requires reading and
re-writing the entire tree.  The key-weaving layout makes such deletes
cheap: because pages inside a delete tile partition the delete-key range, a
range predicate classifies every page without reading it:

* **disjoint** from the range -> keep, zero I/O;
* **fully covered** by the range (and holding no tombstones) -> drop, zero
  I/O -- the entries physically vanish with a metadata update;
* **partially overlapping** -> read, filter, rewrite: one page read + at
  most one page write.

:func:`kiwi_range_delete` implements this; :func:`full_rewrite_delete` is
the baseline comparator that pays the full-tree rewrite.  Experiment F5
races the two.

Semantics (both paths): a secondary range delete removes every *value*
entry whose delete key falls in ``[lo, hi]`` from the whole tree, including
the memtable.  Point-delete tombstones are never removed by a secondary
delete -- a tombstone's delete key is just its write time, and dropping one
would resurrect older versions of its key below.  The classifier therefore
treats a covered page that contains tombstones as a partial page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import AcheronError
from repro.lsm.page import DeleteTile, Page
from repro.lsm.run import Run, SSTableFile, build_files, build_filters
from repro.storage.disk import CATEGORY_SECONDARY_DELETE, IOStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.tree import LSMTree


@dataclass
class SecondaryDeleteReport:
    """What one secondary range delete did and what it cost."""

    method: str
    lo: int
    hi: int
    files_examined: int = 0
    files_modified: int = 0
    files_emptied: int = 0
    pages_kept: int = 0
    pages_dropped: int = 0
    pages_rewritten: int = 0
    entries_deleted: int = 0
    memtable_entries_deleted: int = 0
    io: IOStats = field(default_factory=IOStats)
    #: Sequence number of the fence a ``lazy`` delete installed (None for
    #: the physical methods).  Lazy reports are *honest about deferral*:
    #: every counter above stays at its call-time value -- zero pages
    #: touched, zero entries physically deleted -- because the rewrite
    #: happens later, inside compactions, where it is charged to
    #: ``CATEGORY_COMPACTION`` and surfaced per-merge as
    #: ``CompactionEvent.fence_resolved``.
    fence_seqno: int | None = None

    @property
    def pages_touched_by_io(self) -> int:
        return self.io.total_pages

    def summary(self) -> str:
        if self.method == "lazy":
            return (
                f"lazy: fenced dkey=[{self.lo},{self.hi}] (seqno {self.fence_seqno}) -- "
                f"0 pages touched at call time; resolution deferred to compaction "
                f"({self.io.modeled_us / 1000.0:.2f} ms modeled)"
            )
        return (
            f"{self.method}: deleted {self.entries_deleted} entries "
            f"(+{self.memtable_entries_deleted} buffered) over dkey=[{self.lo},{self.hi}] -- "
            f"{self.pages_dropped} pages dropped free, {self.pages_rewritten} rewritten, "
            f"{self.io.pages_read} read / {self.io.pages_written} written "
            f"({self.io.modeled_us / 1000.0:.2f} ms modeled)"
        )


def _check_range(lo: int, hi: int) -> None:
    if lo > hi:
        raise AcheronError(f"secondary delete range is empty: [{lo}, {hi}]")


def _delete_from_memtable(tree: "LSMTree", lo: int, hi: int) -> int:
    """Remove matching buffered puts (pure in-memory work, no I/O)."""
    doomed = [
        entry.key
        for entry in tree.memtable
        if entry.is_put and lo <= entry.delete_key <= hi
    ]
    for key in doomed:
        tree.memtable._map.remove(key)  # noqa: SLF001 - core module, by design
    return len(doomed)


def kiwi_range_delete(tree: "LSMTree", lo: int, hi: int) -> SecondaryDeleteReport:
    """Delete every value with ``lo <= delete_key <= hi`` via page drops.

    Works on any layout; with ``pages_per_tile == 1`` (classic layout) the
    delete-key ranges of pages follow ingestion locality only, so far fewer
    pages are droppable -- exactly the contrast experiment F7 sweeps.
    """
    _check_range(lo, hi)
    report = SecondaryDeleteReport(method="kiwi", lo=lo, hi=hi)
    before = tree.disk.snapshot()
    report.memtable_entries_deleted = _delete_from_memtable(tree, lo, hi)

    for level in tree.iter_levels():
        for run in list(level.runs):
            new_files: list[SSTableFile] = []
            changed = False
            for file in run.files:
                report.files_examined += 1
                replacement = _delete_from_file(tree, file, level.index, lo, hi, report)
                if replacement is file:
                    new_files.append(file)
                    continue
                changed = True
                report.files_modified += 1
                tree.cache.invalidate_file(file.file_id)
                tree.on_file_removed(file, level.index)
                if replacement is None:
                    report.files_emptied += 1
                else:
                    new_files.append(replacement)
                    tree.on_file_added(replacement, level.index)
            if changed:
                level.replace_run(run, Run(new_files) if new_files else None)

    tree._persist_manifest()  # noqa: SLF001 - core module, by design
    if report.memtable_entries_deleted:
        tree._sync_wal_with_memtable()  # noqa: SLF001 - core module, by design
    report.io = tree.disk.delta_since(before)
    return report


def _delete_from_file(
    tree: "LSMTree",
    file: SSTableFile,
    level: int,
    lo: int,
    hi: int,
    report: SecondaryDeleteReport,
) -> SSTableFile | None:
    """Apply the page classifier to one file (installed at ``level``).

    Returns the same object when untouched, a rebuilt file, or None when
    every page vanished.
    """
    touched = False
    new_tiles: list[DeleteTile] = []
    rebuilt: list[DeleteTile] = []
    for tile in file.tiles:
        if not (lo <= tile.max_delete_key and tile.min_delete_key <= hi):
            new_tiles.append(tile)
            report.pages_kept += len(tile)
            continue
        new_pages: list[Page] = []
        tile_touched = False
        for page in tile.pages:
            if not page.overlaps_delete_range(lo, hi):
                new_pages.append(page)
                report.pages_kept += 1
                continue
            if page.covered_by_delete_range(lo, hi) and page.tombstone_count == 0:
                # The free case: drop the whole page without reading it.
                tile_touched = True
                report.pages_dropped += 1
                report.entries_deleted += len(page)
                continue
            # Partial page (or covered but holding tombstones): read,
            # filter, and rewrite the survivors.
            tree.disk.read_pages(1, CATEGORY_SECONDARY_DELETE)
            survivors = [
                e for e in page.entries if e.is_tombstone or not (lo <= e.delete_key <= hi)
            ]
            deleted_here = len(page.entries) - len(survivors)
            if deleted_here == 0:
                new_pages.append(page)
                report.pages_kept += 1
                continue
            tile_touched = True
            report.entries_deleted += deleted_here
            if survivors:
                tree.disk.write_pages(1, CATEGORY_SECONDARY_DELETE)
                report.pages_rewritten += 1
                new_pages.append(Page(survivors))
            else:
                report.pages_dropped += 1
        if not tile_touched:
            new_tiles.append(tile)
            continue
        touched = True
        if new_pages:
            tile = DeleteTile(new_pages)
            new_tiles.append(tile)
            rebuilt.append(tile)
    if not touched:
        return file
    if not new_tiles:
        return None
    # A changed tile's page filter is stale (pages renumbered, entries
    # gone): rebuild it at this level's budget.  The file filter is
    # inherited -- deleted keys in it cost false positives, never misses.
    build_filters(rebuilt, tree.config, level, tree.bloom_salt, file_filter=False)
    return SSTableFile.from_tiles(
        tree.file_ids(), new_tiles, file.bloom, file.created_at
    )


def lazy_range_delete(tree: "LSMTree", lo: int, hi: int) -> SecondaryDeleteReport:
    """Delete every value with ``lo <= delete_key <= hi`` in O(1) call time.

    The Acheron move applied to secondary deletes: instead of touching any
    page, persist a **range-tombstone fence** ``(lo, hi, seqno)`` -- one
    WAL append plus one manifest publish.  The read path consults the
    fence immediately (shadowed values stop being served the instant this
    returns), flushes drop shadowed buffered entries, and compactions
    physically remove shadowed on-disk entries as a side effect of merges
    they were doing anyway; FADE escalates any file still shadowed as its
    fence approaches ``D_th``, so the physical purge is bounded just like
    point-delete persistence.

    Unlike :func:`kiwi_range_delete`, this needs no ``exclusive()``
    quiesce in concurrent mode and its cost does not grow with the amount
    of covered data.  The report is honest about the deferral: zero pages
    touched, zero entries counted as deleted at call time (see
    :class:`SecondaryDeleteReport.fence_seqno`).
    """
    _check_range(lo, hi)
    report = SecondaryDeleteReport(method="lazy", lo=lo, hi=hi)
    before = tree.disk.snapshot()
    fence = tree.append_range_fence(lo, hi)
    report.fence_seqno = fence.seqno
    report.io = tree.disk.delta_since(before)
    return report


def full_rewrite_delete(tree: "LSMTree", lo: int, hi: int) -> SecondaryDeleteReport:
    """The baseline: read and rewrite the whole tree to apply the delete.

    Every page of every file is read, matching values are filtered out,
    and each run is rebuilt.  The level structure is preserved (this is
    not a full compaction -- versions keep their levels), so the only
    difference from :func:`kiwi_range_delete` is the cost.
    """
    _check_range(lo, hi)
    report = SecondaryDeleteReport(method="full_rewrite", lo=lo, hi=hi)
    before = tree.disk.snapshot()
    report.memtable_entries_deleted = _delete_from_memtable(tree, lo, hi)

    for level in tree.iter_levels():
        for run in list(level.runs):
            report.files_examined += len(run.files)
            tree.disk.read_pages(run.page_count, CATEGORY_SECONDARY_DELETE)
            survivors = [
                e
                for e in run.iter_all_entries()
                if e.is_tombstone or not (lo <= e.delete_key <= hi)
            ]
            deleted = run.entry_count - len(survivors)
            report.entries_deleted += deleted
            if deleted == 0:
                continue
            for file in run.files:
                report.files_modified += 1
                tree.cache.invalidate_file(file.file_id)
                tree.on_file_removed(file, level.index)
            if survivors:
                new_files = build_files(
                    survivors,
                    tree.config,
                    tree.file_ids,
                    tree.clock.now(),
                    level=level.index,
                    salt=tree.bloom_salt,
                )
                pages = sum(f.page_count for f in new_files)
                tree.disk.write_pages(pages, CATEGORY_SECONDARY_DELETE)
                report.pages_rewritten += pages
                for file in new_files:
                    tree.on_file_added(file, level.index)
                level.replace_run(run, Run(new_files))
            else:
                report.files_emptied += len(run.files)
                level.replace_run(run, None)

    tree._persist_manifest()  # noqa: SLF001 - core module, by design
    if report.memtable_entries_deleted:
        tree._sync_wal_with_memtable()  # noqa: SLF001 - core module, by design
    report.io = tree.disk.delta_since(before)
    return report
