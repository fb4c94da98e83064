"""Baseline compaction planning: saturation and run-count triggers.

This planner implements the state-of-the-art strategies the paper compares
against:

* **leveling** -- a freshly flushed run is collapsed into the level-1 run;
  a level over capacity moves one file (chosen by the configured
  :class:`~repro.config.FilePickPolicy`) down a level, merging it with its
  key-overlap there (file-granular partial compaction, RocksDB-style);
* **tiering** -- a level that has accumulated ``T`` runs merges them all
  into a single new run in the next level.

The planner returns one task at a time; the tree loops until no trigger
fires.  FADE's additional delete-aware triggers live in
:mod:`repro.core.fade` and take priority over these (expired tombstones are
compacted before ordinary housekeeping).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import (
    CompactionGranularity,
    CompactionStyle,
    FilePickPolicy,
    LSMConfig,
)
from repro.lsm.level import Level
from repro.lsm.run import Run, SSTableFile
from repro.lsm.compaction.task import (
    CompactionReason,
    CompactionTask,
    OutputPlacement,
    TaskInput,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.tree import LSMTree

_FAR_FUTURE = float("inf")


class SaturationPlanner:
    """Plans classical (delete-unaware) compactions.

    Triggers read the O(1) incremental counters maintained by
    :class:`~repro.lsm.level.Level` and :class:`~repro.lsm.run.Run`
    (cache coherence is invariant-checked).
    """

    def __init__(self, config: LSMConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def plan(
        self, tree: "LSMTree", busy_levels: frozenset[int] = frozenset()
    ) -> CompactionTask | None:
        """The next task the baseline strategy requires, or None.

        ``busy_levels`` holds levels reserved by in-flight concurrent
        compactions; any candidate task touching one is skipped so the
        scheduler only ever dispatches level-disjoint jobs.  The empty
        default makes serial planning bit-identical to the single-threaded
        planner.
        """
        if self.config.policy is CompactionStyle.LEVELING:
            return self._plan_leveling(tree, busy_levels)
        if self.config.policy is CompactionStyle.LAZY_LEVELING:
            return self._plan_lazy_leveling(tree, busy_levels)
        return self._plan_tiering(tree, busy_levels)

    # ------------------------------------------------------------------
    # leveling
    # ------------------------------------------------------------------
    def _plan_leveling(
        self, tree: "LSMTree", busy: frozenset[int] = frozenset()
    ) -> CompactionTask | None:
        # First restore the one-run-per-level invariant (flush landing).
        for level in tree.iter_levels():
            if busy and level.index in busy:
                continue
            if level.run_count > 1:
                return self._collapse_level(tree, level)
        # Then resolve capacity overflows top-down.
        for level in tree.iter_levels():
            if busy and (level.index in busy or level.index + 1 in busy):
                continue
            if level.is_empty:
                continue
            if level.entry_count > self.config.level_capacity_entries(level.index):
                return self._move_one_file(tree, level)
        return None

    def _collapse_level(self, tree: "LSMTree", level: Level) -> CompactionTask:
        inputs = [TaskInput(level.index, run, list(run.files)) for run in level.runs]
        drop = (
            level.index >= tree.deepest_nonempty_level()
            and self.config.drop_tombstones_at_bottom
        )
        return CompactionTask(
            reason=CompactionReason.LEVEL_COLLAPSE,
            inputs=inputs,
            target_level=level.index,
            placement=OutputPlacement.NEW_RUN,
            drop_tombstones=drop,
            notes=f"collapse {level.run_count} runs of L{level.index}",
        )

    def _move_one_file(self, tree: "LSMTree", level: Level) -> CompactionTask:
        if self.config.granularity is CompactionGranularity.LEVEL:
            return self._move_whole_level(tree, level)
        source_run = level.runs[0]
        next_index = level.index + 1
        next_level = tree.level(next_index)
        victim = self._pick_file(source_run, next_level)
        inputs = [TaskInput(level.index, source_run, [victim])]
        overlap: list[SSTableFile] = []
        if not next_level.is_empty:
            target_run = next_level.runs[0]
            overlap = target_run.overlapping_files(victim.min_key, victim.max_key)
            if overlap:
                inputs.append(TaskInput(next_index, target_run, overlap))
        drop = (
            next_index >= tree.deepest_nonempty_level()
            and self.config.drop_tombstones_at_bottom
        )
        # Trivial move: no overlap below and nothing to purge -> the file
        # descends as pure metadata, no device I/O (RocksDB behaviour).
        purge_matters = drop and victim.tombstone_count > 0
        if self.config.trivial_moves and not overlap and not purge_matters:
            return CompactionTask(
                reason=CompactionReason.SATURATION,
                inputs=inputs,
                target_level=next_index,
                placement=OutputPlacement.MERGE_INTO_TARGET_RUN,
                trivial_move=True,
                notes=f"trivial move of file {victim.file_id} L{level.index}->L{next_index}",
            )
        return CompactionTask(
            reason=CompactionReason.SATURATION,
            inputs=inputs,
            target_level=next_index,
            placement=OutputPlacement.MERGE_INTO_TARGET_RUN,
            drop_tombstones=drop,
            notes=f"file {victim.file_id} from L{level.index}",
        )

    def _move_whole_level(self, tree: "LSMTree", level: Level) -> CompactionTask:
        """LEVEL granularity: merge the entire level into the next one."""
        source_run = level.runs[0]
        next_index = level.index + 1
        next_level = tree.level(next_index)
        inputs = [TaskInput(level.index, source_run, list(source_run.files))]
        if not next_level.is_empty:
            target_run = next_level.runs[0]
            inputs.append(TaskInput(next_index, target_run, list(target_run.files)))
        drop = (
            next_index >= tree.deepest_nonempty_level()
            and self.config.drop_tombstones_at_bottom
        )
        return CompactionTask(
            reason=CompactionReason.SATURATION,
            inputs=inputs,
            target_level=next_index,
            placement=OutputPlacement.NEW_RUN,
            drop_tombstones=drop,
            notes=f"full-level merge L{level.index}->L{next_index}",
        )

    def _pick_file(self, source_run: Run, next_level: Level) -> SSTableFile:
        """Choose the file to move, per the configured policy."""
        policy = self.config.file_pick
        files = source_run.files

        def overlap_entries(file: SSTableFile) -> int:
            if next_level.is_empty:
                return 0
            target_run = next_level.runs[0]
            return sum(
                f.entry_count
                for f in target_run.overlapping_files(file.min_key, file.max_key)
            )

        if policy is FilePickPolicy.TOMBSTONE_DENSITY:
            # FADE's data-movement policy: drain tombstones at the lowest
            # merge cost.  The score is entries moved per tombstone pushed
            # down -- a file dense in tombstones is worth a bigger merge,
            # while among tombstone-free files the score degenerates to
            # plain min-overlap.  (Scoring *only* by density, ignoring
            # merge cost, roughly doubles write amplification at this
            # scale for no extra persistence benefit.)
            def drain_score(f: SSTableFile) -> tuple[float, float, int]:
                moved = f.entry_count + overlap_entries(f)
                payoff = 1 + f.tombstone_count
                age = (
                    f.oldest_tombstone_time
                    if f.oldest_tombstone_time is not None
                    else _FAR_FUTURE
                )
                return (moved / payoff, age, f.file_id)

            return min(files, key=drain_score)
        if policy is FilePickPolicy.OLDEST:
            return min(files, key=lambda f: (f.created_at, f.file_id))
        # MIN_OVERLAP: cheapest merge (classic write-amp-friendly choice).
        return min(files, key=lambda f: (overlap_entries(f), f.file_id))

    # ------------------------------------------------------------------
    # lazy leveling (Dostoevsky): tiering everywhere, leveling at the last
    # ------------------------------------------------------------------
    def _plan_lazy_leveling(
        self, tree: "LSMTree", busy: frozenset[int] = frozenset()
    ) -> CompactionTask | None:
        last = tree.deepest_nonempty_level()
        if last == 0:
            return None
        last_busy = bool(busy) and (last in busy or last + 1 in busy)
        last_level = tree.level(last)
        if not last_busy:
            # 1. The last level must be one leveled run.
            if last_level.run_count > 1:
                return self._collapse_level(tree, last_level)
            # 2. An outgrown last run is pushed down as-is: a trivial move
            #    (no merge -- nothing exists below it), creating the next
            #    level.
            (last_run,) = last_level.runs
            if last_run.entry_count > self.config.level_capacity_entries(last):
                return CompactionTask(
                    reason=CompactionReason.RELOCATION,
                    inputs=[TaskInput(last, last_run, list(last_run.files))],
                    target_level=last + 1,
                    placement=OutputPlacement.NEW_RUN,
                    trivial_move=True,
                    notes=f"relocate last run L{last}->L{last + 1}",
                )
        # 3. Tier levels above the last merge on run count; a merge landing
        #    *on* the last level absorbs the last run (leveling behaviour).
        for level in tree.iter_levels():
            if level.index >= last or level.run_count < self.config.size_ratio:
                continue
            next_index = level.index + 1
            if busy and (level.index in busy or next_index in busy):
                continue
            if next_index == last and last_level.run_count != 1:
                # The last level is mid-install (a concurrent job owns it
                # or it briefly holds several runs); wait for step 1.
                continue
            inputs = [TaskInput(level.index, run, list(run.files)) for run in level.runs]
            if next_index == last:
                inputs.append(
                    TaskInput(last, last_level.runs[0], list(last_level.runs[0].files))
                )
            drop = (
                next_index >= last
                and self.config.drop_tombstones_at_bottom
            )
            return CompactionTask(
                reason=CompactionReason.SATURATION,
                inputs=inputs,
                target_level=next_index,
                placement=OutputPlacement.NEW_RUN,
                drop_tombstones=drop,
                notes=f"lazy tier-merge L{level.index}->L{next_index}",
            )
        return None

    # ------------------------------------------------------------------
    # tiering
    # ------------------------------------------------------------------
    def _plan_tiering(
        self, tree: "LSMTree", busy: frozenset[int] = frozenset()
    ) -> CompactionTask | None:
        for level in tree.iter_levels():
            if busy and (level.index in busy or level.index + 1 in busy):
                continue
            if level.run_count >= self.config.size_ratio:
                return self.tier_merge_task(tree, level)
        return None

    def tier_merge_task(
        self,
        tree: "LSMTree",
        level: Level,
        reason: CompactionReason = CompactionReason.SATURATION,
    ) -> CompactionTask:
        """Merge every run of ``level`` into one run in the next level.

        Shared with FADE, whose TTL trigger forces the same merge early.
        """
        next_index = level.index + 1
        inputs = [TaskInput(level.index, run, list(run.files)) for run in level.runs]
        target_empty = tree.level(next_index).is_empty
        drop = (
            target_empty
            and level.index >= tree.deepest_nonempty_level()
            and self.config.drop_tombstones_at_bottom
        )
        return CompactionTask(
            reason=reason,
            inputs=inputs,
            target_level=next_index,
            placement=OutputPlacement.NEW_RUN,
            drop_tombstones=drop,
            notes=f"tier-merge {level.run_count} runs of L{level.index}",
        )
