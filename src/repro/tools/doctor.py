"""The store doctor: offline integrity checking for durable directories.

``diagnose_store(path)`` inspects a directory written by a durable engine
and verifies, without mutating anything:

1. the manifest is readable and carries a valid config;
2. every SSTable the manifest references exists and decodes cleanly
   (checksums verified page by page);
3. no orphan SSTables sit outside the manifest (warning, not error --
   a crash between file write and manifest swap legitimately leaves one);
4. runs are key-partitioned and file metadata is internally consistent;
5. the version invariant holds across levels (shallower copies of a key
   are newer);
6. the WAL replays (a torn tail is normal; interior corruption is not).

``scrub_store(path)`` is the cheaper, checksum-first sibling: it verifies
the whole-file checksum of **every** SSTable on disk (referenced or not),
validates the manifest's integrity envelope (epoch + CRC), and replays the
WAL -- without decoding entries or checking cross-file invariants.  It is
what a periodic background scrubber would run: a bit-flipped file is
*reported*, never silently served.

The result is a :class:`DoctorReport` -- render it with ``.render()`` or
check ``.healthy``.  Used by ``python -m repro.cli verify`` / ``scrub``
and directly via ``python -m repro.tools.doctor <diagnose|scrub> DIR``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.config import LSMConfig
from repro.errors import AcheronError, ConfigError, CorruptionError, StorageError
from repro.lsm.page import DeleteTile, Page
from repro.lsm.run import SSTableFile
from repro.storage.filestore import FileStore
from repro.storage.wal import WriteAheadLog


@dataclass
class DoctorReport:
    """Findings of one :func:`diagnose_store` pass."""

    directory: str
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    checks_passed: list[str] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def passed(self, check: str) -> None:
        self.checks_passed.append(check)

    def render(self) -> str:
        lines = [f"store doctor: {self.directory}"]
        for check in self.checks_passed:
            lines.append(f"  [ok]   {check}")
        for warning in self.warnings:
            lines.append(f"  [warn] {warning}")
        for error in self.errors:
            lines.append(f"  [FAIL] {error}")
        verdict = "HEALTHY" if self.healthy else "CORRUPT"
        extras = ", ".join(f"{k}={v}" for k, v in self.stats.items())
        lines.append(f"  => {verdict}" + (f" ({extras})" if extras else ""))
        return "\n".join(lines)


def diagnose_store(directory: str | Path) -> DoctorReport:
    """Run every integrity check against ``directory`` (read-only).

    A sharded root (marked by ``SHARDS.json``) is diagnosed shard by
    shard: the root manifest is validated first, then every shard
    directory gets the full single-tree diagnosis, findings merged under
    a ``shard-NN:`` prefix.
    """
    from repro.shard.manifest import is_sharded_root

    if is_sharded_root(directory):
        return _check_sharded(directory, diagnose_store, "diagnose")
    report = DoctorReport(directory=str(directory))
    store = FileStore(directory)

    manifest = _check_manifest(store, report)
    if manifest is None:
        return report

    files_by_level = _check_sstables(store, manifest, report)
    _check_runs(files_by_level, report)
    _check_version_invariant(manifest, files_by_level, report)
    _check_wal(store, report)
    return report


def _check_manifest(store: FileStore, report: DoctorReport) -> dict | None:
    try:
        manifest = store.read_manifest()
    except CorruptionError as exc:
        report.error(f"manifest unreadable: {exc}")
        return None
    if manifest is None:
        report.error("no manifest: not an initialized store")
        return None
    report.passed("manifest readable")
    for key in ("levels", "next_file_id", "seqno", "clock"):
        if key not in manifest:
            report.error(f"manifest missing field {key!r}")
            return None
    if "config" in manifest:
        try:
            config = LSMConfig.from_dict(manifest["config"])
            report.passed("recorded config valid")
        except ConfigError as exc:
            report.error(f"recorded config invalid: {exc}")
        else:
            _check_bloom_salt(config, manifest, report)
    else:
        report.warn("manifest records no config (pre-1.0 store)")
    return manifest


def _check_bloom_salt(
    config: LSMConfig, manifest: dict, report: DoctorReport
) -> None:
    """Verify the persisted bloom salt matches the recorded config.

    A salted store that loses its salt silently rebuilds every filter
    under a fresh key on reopen -- correct, but it discards the very
    secret the defense depends on, so the doctor surfaces it.
    """
    salt_hex = manifest.get("bloom_salt")
    if config.bloom_salted:
        if not salt_hex:
            report.warn(
                "config opts into salted blooms but the manifest records no "
                "bloom_salt (reopen will rekey every filter)"
            )
            return
        try:
            salt = bytes.fromhex(salt_hex)
        except (TypeError, ValueError):
            report.error(f"bloom_salt is not valid hex: {salt_hex!r}")
            return
        if len(salt) < 8:
            report.warn(
                f"bloom_salt is only {len(salt)} bytes (crafted-key "
                "resistance wants >= 8)"
            )
        else:
            report.passed(f"bloom salt persisted ({len(salt)} bytes)")
    elif salt_hex:
        report.warn(
            "manifest records a bloom_salt but the config has salting off "
            "(stale key from a previously defended store)"
        )


def _check_sstables(
    store: FileStore, manifest: dict, report: DoctorReport
) -> dict[int, list[list[SSTableFile]]]:
    """Load every referenced SSTable; returns {level: [run file lists]}."""
    files_by_level: dict[int, list[list[SSTableFile]]] = {}
    referenced: set[int] = set()
    broken = 0
    for level_offset, run_lists in enumerate(manifest["levels"]):
        level_index = level_offset + 1
        files_by_level[level_index] = []
        for file_ids in run_lists:
            run_files: list[SSTableFile] = []
            for file_id in file_ids:
                referenced.add(file_id)
                try:
                    tiles_entries, meta = store.read_sstable(file_id)
                    tiles = [
                        DeleteTile([Page(page) for page in pages])
                        for pages in tiles_entries
                    ]
                    file = SSTableFile(
                        file_id,
                        tiles,
                        bloom=_NullBloom(),
                        created_at=meta.get("created_at", 0),
                    )
                    file.check_invariants()
                    run_files.append(file)
                except (AcheronError, AssertionError, ValueError) as exc:
                    broken += 1
                    report.error(f"sstable {file_id} (L{level_index}): {exc}")
            files_by_level[level_index].append(run_files)
    if not broken:
        report.passed(f"all {len(referenced)} referenced sstables decode and self-check")
    orphans = [fid for fid in store.list_sstable_ids() if fid not in referenced]
    if orphans:
        report.warn(f"{len(orphans)} orphan sstable(s) not in the manifest: {orphans}")
    else:
        report.passed("no orphan sstables")
    report.stats["sstables"] = len(referenced)
    report.stats["entries"] = sum(
        f.entry_count for runs in files_by_level.values() for run in runs for f in run
    )
    return files_by_level


def _check_runs(
    files_by_level: dict[int, list[list[SSTableFile]]], report: DoctorReport
) -> None:
    bad = 0
    for level_index, runs in files_by_level.items():
        for run_files in runs:
            ordered = sorted(run_files, key=lambda f: f.min_key)
            for left, right in zip(ordered, ordered[1:]):
                if right.min_key <= left.max_key:
                    bad += 1
                    report.error(
                        f"L{level_index}: files {left.file_id} and {right.file_id} "
                        "overlap within one run"
                    )
    if not bad:
        report.passed("runs are key-partitioned")


def _check_version_invariant(
    manifest: dict,
    files_by_level: dict[int, list[list[SSTableFile]]],
    report: DoctorReport,
) -> None:
    """Shallower versions of a key must be newer, and no seqno may exceed
    the manifest's recorded high-water mark."""
    best_seqno: dict[Any, int] = {}
    max_seen = 0
    violations = 0
    for level_index in sorted(files_by_level):
        level_best: dict[Any, int] = {}
        for run_files in files_by_level[level_index]:
            for file in run_files:
                for entry in file.iter_all_entries():
                    max_seen = max(max_seen, entry.seqno)
                    prev = best_seqno.get(entry.key)
                    if prev is not None and entry.seqno >= prev:
                        violations += 1
                    existing = level_best.get(entry.key)
                    if existing is None or entry.seqno > existing:
                        level_best[entry.key] = entry.seqno
        best_seqno.update(level_best)
    if violations:
        report.error(f"{violations} cross-level version-order violations")
    else:
        report.passed("cross-level version ordering holds")
    if max_seen > manifest["seqno"]:
        report.error(
            f"entry seqno {max_seen} exceeds the manifest's high-water mark "
            f"{manifest['seqno']}"
        )
    else:
        report.passed("sequence-number high-water mark consistent")


def _check_wal(store: FileStore, report: DoctorReport) -> None:
    try:
        entries = list(WriteAheadLog.replay(store.wal_path))
    except CorruptionError as exc:
        report.error(f"WAL corrupt before its tail: {exc}")
        return
    report.passed(f"WAL replays ({len(entries)} buffered entries)")
    report.stats["wal_entries"] = len(entries)


class _NullBloom:
    """Stand-in filter for offline inspection (always 'maybe')."""

    size_bytes = 0
    probes = 0

    def might_contain(self, key: Any) -> bool:  # pragma: no cover - trivial
        return True


# ---------------------------------------------------------------------------
# live attack-surface examination
# ---------------------------------------------------------------------------
def examine_attack_surface(engine: Any, name: str = "engine") -> DoctorReport:
    """Adversarial posture of a *live* engine: which defenses are armed.

    It reports, per defense, whether the engine is exposed to the attack
    classes in :mod:`repro.workload.adversarial`: unsalted blooms
    (bloom-defeating key streams can be crafted offline), unhardened
    cache admission (one-hit-wonder and empty-point floods evict the
    working set), and -- for sharded engines -- a disabled auto-split
    controller (write storms pin one shard's flush queue).  Advisory
    only: an undefended engine is a configuration choice, not
    corruption, so warnings never mark the report unhealthy.
    """
    report = DoctorReport(directory=name)
    trees = (
        [shard.tree for shard in engine.shards]
        if hasattr(engine, "shards")
        else [engine.tree]
    )

    salted = [t.bloom_salt is not None for t in trees]
    if all(salted):
        salts = {t.bloom_salt for t in trees}
        report.passed(
            f"bloom filters salted ({len(salts)} distinct key(s) across "
            f"{len(trees)} tree(s))"
        )
        if len(trees) > 1 and len(salts) == 1:
            report.warn(
                "every shard shares one bloom salt: a key leaked from one "
                "shard defeats all of them"
            )
    else:
        report.warn(
            "bloom filters unsalted: absent-key streams defeating them can "
            "be crafted offline (set bloom_salted=True)"
        )

    cache_stats = [t.cache.stats() for t in trees]
    report.stats["cache"] = cache_stats[0] if len(cache_stats) == 1 else cache_stats
    if all(s["hardened"] for s in cache_stats):
        dk = sum(s["doorkeeper_rejections"] for s in cache_stats)
        neg = sum(s["negative_guard_drops"] for s in cache_stats)
        report.passed(
            f"cache admission hardened ({dk} doorkeeper rejections, "
            f"{neg} negative-lookup drops)"
        )
    else:
        report.warn(
            "cache admission unhardened: one-hit floods evict the working "
            "set unchecked (set cache_hardened=True)"
        )

    if hasattr(engine, "auto_split_events"):
        events = engine.auto_split_events
        report.stats["auto_split_events"] = events
        if getattr(engine, "_autosplit", None) is None:
            report.warn(
                "hot-shard auto-split disabled: a write storm concentrates "
                "on one shard until a manual rebalance (pass auto_split=...)"
            )
        else:
            splits = sum(1 for e in events if e["event"] == "split")
            refusals = len(events) - splits
            report.passed(
                f"hot-shard auto-split armed ({splits} splits, "
                f"{refusals} refusals so far)"
            )
    return report


# ---------------------------------------------------------------------------
# live memory examination
# ---------------------------------------------------------------------------
def examine_memory(engine: Any, name: str = "engine") -> DoctorReport:
    """Memory posture of a *live* engine: budgets, seams, governor state.

    Verifies the invariants the adaptive memory governor relies on --
    per-shard allocations within the global pool, write-buffer budgets
    >= 1 entry, and each block cache's shard layout matching what its
    *current* capacity implies (a resize across the shard threshold must
    re-shard, not keep the build-time split).  Advisory beyond those
    invariants: an ungoverned engine (static config budgets) is a
    configuration choice, so it only warns.
    """
    from repro.storage.cache import _DEFAULT_SHARDS, _SHARD_THRESHOLD

    report = DoctorReport(directory=name)
    trees = (
        [shard.tree for shard in engine.shards]
        if hasattr(engine, "shards")
        else [engine.tree]
    )

    bad_layout = []
    for i, tree in enumerate(trees):
        cache = tree.cache
        want = _DEFAULT_SHARDS if cache.capacity >= _SHARD_THRESHOLD else 1
        expected = 1
        while expected < min(want, max(1, cache.capacity)):
            expected *= 2
        if cache.shard_count != expected:
            bad_layout.append(
                f"shard {i}: cache capacity {cache.capacity} implies "
                f"{expected} shard(s), has {cache.shard_count}"
            )
    if bad_layout:
        for line in bad_layout:
            report.error(f"stale cache shard layout -- {line}")
    else:
        report.passed(
            f"cache shard layouts match their live capacities "
            f"({len(trees)} tree(s))"
        )

    if any(t.memtable_budget < 1 for t in trees):
        report.error("write-buffer budget below 1 entry")
    else:
        report.passed("write-buffer budgets >= 1 entry")

    report.stats["budgets"] = [
        {
            "memtable_entries": t.memtable_budget,
            "cache_pages": t.cache.capacity,
            "cache_resizes": t.cache.resizes,
        }
        for t in trees
    ]

    governor = getattr(engine, "_governor", None)
    if governor is None:
        report.warn(
            "memory governor disabled: budgets are the static config "
            "constants; a skewed workload starves hot shards "
            "(pass memory_governor=...)"
        )
        return report
    summary = governor.summary()
    report.stats["governor"] = summary
    budget = governor.budget
    if budget is not None:
        try:
            budget.check()
        except AssertionError as exc:
            report.error(f"memory budget invariant violated: {exc}")
        else:
            report.passed(
                f"global budget honored ({budget.used_units()} of "
                f"{budget.total_units} units allocated)"
            )
        drift = [
            i
            for i, tree in enumerate(trees)
            if i < budget.shard_count
            and (
                tree.memtable_budget != budget.memtable_entries[i]
                or tree.cache.capacity != budget.cache_pages[i]
            )
        ]
        if drift:
            report.warn(
                f"ledger/live drift on shard(s) {drift}: allocations were "
                "changed outside the governor (or a decision is mid-apply)"
            )
        else:
            report.passed("ledger matches live allocations on every shard")
    report.passed(
        f"memory governor armed ({summary['windows_evaluated']} windows, "
        f"{summary['decisions']} decisions, {summary['cache_resizes']} cache + "
        f"{summary['memtable_resizes']} buffer resizes)"
    )
    return report


# ---------------------------------------------------------------------------
# live compaction-policy examination
# ---------------------------------------------------------------------------
def examine_policy(engine: Any, name: str = "engine", window_ops: int = 4096) -> DoctorReport:
    """Compaction-policy posture of a *live* engine: layout vs policy.

    The policy sibling of :func:`examine_memory`.  A live policy switch
    from tiering to leveling does not rewrite the tree eagerly -- the
    multi-run levels the old policy left behind drain through ordinary
    ``LEVEL_COLLAPSE`` compactions.  That transition should complete
    within roughly one tuner window of operations; a tree that still
    has multi-run levels under a leveling policy *longer* than that is
    stuck mid-transition (maintenance starved, or a switch applied to a
    read-mostly shard that never triggers compaction).  Advisory only:
    warnings never mark the report unhealthy, because a lingering
    transition is a performance smell, not a correctness violation.
    """
    from repro.config import CompactionStyle
    from repro.metrics.shape import tree_shape

    report = DoctorReport(directory=name)
    trees = (
        [shard.tree for shard in engine.shards]
        if hasattr(engine, "shards")
        else [engine.tree]
    )

    report.stats["policies"] = [
        {
            "policy": t.config.policy.value,
            "switches": t.policy_switches,
            "last_switch_tick": t.last_policy_switch_tick,
        }
        for t in trees
    ]

    lingering = []
    transitioning = 0
    for i, tree in enumerate(trees):
        if tree.config.policy is not CompactionStyle.LEVELING:
            continue
        multi = [s.index for s in tree_shape(tree) if s.runs > 1]
        if not multi:
            continue
        transitioning += 1
        age = (
            None
            if tree.last_policy_switch_tick is None
            else tree.clock.now() - tree.last_policy_switch_tick
        )
        if age is None or age > window_ops:
            since = "no switch recorded" if age is None else f"{age} ticks ago"
            lingering.append(
                f"shard {i}: leveling policy but level(s) {multi} hold "
                f"multiple runs (switched {since})"
            )
    if lingering:
        for line in lingering:
            report.warn(
                f"stuck mid-transition -- {line}; compaction is not "
                "draining the tiered layout (run maintain()/compact_all())"
            )
    elif transitioning:
        report.passed(
            f"{transitioning} tree(s) mid tiering->leveling transition, "
            f"all within the {window_ops}-op window"
        )
    else:
        report.passed(
            f"every tree's layout matches its policy ({len(trees)} tree(s))"
        )

    tuner = getattr(engine, "_tuner", None)
    if tuner is None:
        report.warn(
            "policy tuner disabled: compaction policies are the static "
            "config/override constants; a drifting workload keeps paying "
            "the wrong policy's I/O (pass policy_tuner=...)"
        )
        return report
    summary = tuner.summary()
    report.stats["tuner"] = summary
    report.passed(
        f"policy tuner armed ({summary['windows_evaluated']} windows, "
        f"{summary['switches']} switches)"
    )
    return report


# ---------------------------------------------------------------------------
# live write-path examination
# ---------------------------------------------------------------------------
def examine_write_path(tree: Any, name: str = "tree") -> DoctorReport:
    """Write-path health of a *live* tree: pipeline and backpressure.

    It surfaces the flush/compaction pipeline report in ``report.stats``
    and warns on the symptoms of a misconfigured write path: writers
    spending measurable time in hard stalls (the background pool cannot
    keep up -- too few workers or the memtable too small), and a flush
    pipeline that never batches (workers adding coordination cost
    without absorbing any rotations).  Advisory only: warnings never
    mark the report unhealthy.
    """
    from repro.metrics.writepath import write_path_report

    report = DoctorReport(directory=name)
    snapshot = write_path_report(tree)
    report.stats["write_path"] = snapshot

    mode = snapshot["mode"]
    if mode == "serial":
        report.passed(
            f"serial write path ({snapshot['flush_jobs']} inline flushes, "
            f"{snapshot['compaction_jobs']} inline compactions)"
        )
        return report

    report.passed(
        f"concurrent write path: {snapshot['workers']} workers, "
        f"{snapshot['flush_jobs']} flush jobs over {snapshot['rotations']} "
        f"rotations, {snapshot['compaction_jobs']} compaction jobs"
    )
    if snapshot["hard_stalls"]:
        report.warn(
            f"writers hard-stalled {snapshot['hard_stalls']} times "
            f"({snapshot['stall_seconds']:.3f}s total): background pool "
            "cannot keep up (raise workers or memtable_entries)"
        )
    elif snapshot["soft_delays"]:
        report.passed(
            f"backpressure stayed soft ({snapshot['soft_delays']} delays, "
            f"{snapshot['stall_seconds']:.3f}s)"
        )
    if snapshot["flush_jobs"] and snapshot["flush_batching"] <= 1.0 and snapshot[
        "rotations"
    ] > snapshot["flush_jobs"]:
        report.warn(
            "flush pipeline never batched (1 memtable per job): rotations "
            "are outpacing a flusher that never falls behind enough to "
            "coalesce -- concurrency is buying latency only"
        )
    inflight = snapshot["compaction_inflight"]
    if inflight:
        report.warn(
            f"{inflight} compaction jobs still in flight (call write_barrier() "
            "before examining if an at-rest view was intended)"
        )
    return report


# ---------------------------------------------------------------------------
# scrub: checksum-first media verification
# ---------------------------------------------------------------------------
def scrub_store(directory: str | Path) -> DoctorReport:
    """Checksum every SSTable on disk and validate the manifest.

    Read-only.  Unlike :func:`diagnose_store` this walks *all* files in
    the directory (a corrupt orphan is still worth reporting: it may be
    the only copy of a crashed flush) and verifies the embedded
    whole-file checksums rather than decoding entries.  A sharded root
    iterates every shard directory, so one scrub pass covers the whole
    deployment.
    """
    from repro.shard.manifest import is_sharded_root

    if is_sharded_root(directory):
        return _check_sharded(directory, scrub_store, "scrub")
    report = DoctorReport(directory=str(directory))
    store = FileStore(directory)

    referenced: set[int] = set()
    try:
        manifest = store.read_manifest()
    except CorruptionError as exc:
        report.error(f"manifest fails verification: {exc}")
        manifest = None
    else:
        if manifest is None:
            report.error("no manifest: not an initialized store")
        else:
            epoch = store.manifest_epoch
            report.passed(
                "manifest checksum valid"
                + (f" (epoch {epoch})" if epoch is not None else " (no epoch: pre-epoch store)")
            )
            report.stats["manifest_epoch"] = epoch
            if "config" in manifest:
                try:
                    _check_bloom_salt(
                        LSMConfig.from_dict(manifest["config"]), manifest, report
                    )
                except ConfigError:
                    pass  # diagnose reports invalid configs; scrub is media-only
            referenced = {
                fid
                for run_lists in manifest.get("levels", [])
                for file_ids in run_lists
                for fid in file_ids
            }

    checksums: dict[int, int] = {}
    bad = 0
    for file_id in store.list_sstable_ids():
        label = "referenced" if file_id in referenced else "orphan"
        try:
            checksums[file_id] = store.checksum_sstable(file_id)
        except (CorruptionError, StorageError) as exc:
            bad += 1
            report.error(f"sstable {file_id} ({label}): {exc}")
    if not bad:
        report.passed(f"all {len(checksums)} sstable checksums verify")
    for file_id in sorted(referenced):
        if not store.sstable_path(file_id).exists():
            report.error(f"sstable {file_id} referenced by the manifest is missing")
    report.stats["sstables_scrubbed"] = len(checksums)
    report.stats["sstable_checksums"] = {str(k): v for k, v in sorted(checksums.items())}

    try:
        entries = list(WriteAheadLog.replay(store.wal_path))
    except CorruptionError as exc:
        report.error(f"WAL corrupt before its tail: {exc}")
    else:
        report.passed(f"WAL replays ({len(entries)} buffered entries)")
    return report


# ---------------------------------------------------------------------------
# sharded stores
# ---------------------------------------------------------------------------
def _check_sharded(directory: str | Path, per_shard, verb: str) -> DoctorReport:
    """Validate a sharded root, then run ``per_shard`` on every shard
    directory, merging findings under a per-shard prefix."""
    from repro.shard.manifest import ShardRootStore, validate_layout

    report = DoctorReport(directory=str(directory))
    store = ShardRootStore(directory)
    try:
        layout = store.read_manifest()
    except CorruptionError as exc:
        report.error(f"shard manifest fails verification: {exc}")
        return report
    if layout is None:  # pragma: no cover - is_sharded_root gates entry
        report.error("no shard manifest: not an initialized sharded store")
        return report
    try:
        pmap = validate_layout(layout)
    except CorruptionError as exc:
        report.error(f"shard manifest malformed: {exc}")
        return report
    dirs = [str(name) for name in layout["shard_dirs"]]
    report.passed(f"shard manifest valid ({pmap.shards} shards)")
    report.stats["shards"] = pmap.shards
    if layout.get("pending_fanout"):
        f = layout["pending_fanout"]
        report.warn(
            f"interrupted secondary-delete fan-out dkey=[{f['lo']}, {f['hi']}] "
            "pending (a writable open will replay it)"
        )
    if layout.get("pending_split"):
        s = layout["pending_split"]
        report.warn(
            f"interrupted shard split (stage {s['stage']!r}, shard "
            f"{s['source']}) pending (a writable open will resume it)"
        )

    for name in dirs:
        shard_dir = Path(directory) / name
        if not shard_dir.is_dir():
            if layout.get("pending_split") and name == layout["pending_split"].get(
                "new_dir"
            ):
                # Stage-"copy" crash window: the target never became part
                # of the map, and recovery recreates it from scratch.
                report.warn(f"{name}: directory missing (mid-copy split target)")
            else:
                report.error(f"{name}: shard directory missing")
            continue
        sub = per_shard(shard_dir)
        for message in sub.checks_passed:
            report.passed(f"{name}: {message}")
        for message in sub.warnings:
            report.warn(f"{name}: {message}")
        for message in sub.errors:
            report.error(f"{name}: {message}")
        for key, value in sub.stats.items():
            report.stats[f"{name}.{key}"] = value
    report.passed(f"{verb} covered {len(dirs)} shard directories")
    return report


def examine_shards(engine: Any, name: str = "sharded-engine") -> DoctorReport:
    """Shard-level health of a *live* sharded engine.

    It surfaces the per-shard breakdown (range, size, FADE/``D_th``
    compliance) in ``report.stats`` and warns on the operational
    symptoms a shard layer introduces: a ``D_th`` violation on any shard,
    heavy size skew (the rebalancer's trigger condition persisting), and
    empty shards.
    Advisory only, except ``D_th`` violations, which are errors -- they
    break the paper's headline contract.
    """
    report = DoctorReport(directory=name)
    stats = engine.stats()
    rows = stats.shards or []
    report.stats["shards"] = rows
    if not rows:
        report.warn("engine reports no shards")
        return report
    report.passed(f"{len(rows)} shards reporting")

    violators = [r for r in rows if not r["compliant"]]
    if violators:
        for r in violators:
            report.error(
                f"shard {r['index']} {r['range']}: D_th violated "
                f"({r['violations']} violations, oldest pending age "
                f"{r['oldest_pending_age']})"
            )
    else:
        report.passed("per-shard D_th compliance holds on every shard")

    sizes = [r["entries_on_disk"] + r["buffered_entries"] for r in rows]
    total = sum(sizes)
    if total:
        mean = total / len(sizes)
        worst = max(range(len(sizes)), key=sizes.__getitem__)
        skew = sizes[worst] / mean if mean else 0.0
        report.stats["size_skew"] = round(skew, 2)
        if skew > 2.0:
            report.warn(
                f"size skew {skew:.1f}x: shard {rows[worst]['index']} holds "
                f"{sizes[worst]} of {total} entries (rebalance() would split it)"
            )
        else:
            report.passed(f"size skew {skew:.1f}x within the 2.0x rebalance threshold")
        empties = [r["index"] for r, size in zip(rows, sizes) if size == 0]
        if empties:
            report.warn(f"empty shard(s): {empties}")
    return report


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.tools.doctor <diagnose|scrub> DIRECTORY``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.tools.doctor",
        description="offline integrity checking for durable store directories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    diag = sub.add_parser("diagnose", help="full structural diagnosis")
    diag.add_argument("directory")
    scrub = sub.add_parser("scrub", help="checksum every sstable + validate the manifest")
    scrub.add_argument("directory")
    args = parser.parse_args(argv)
    runner = diagnose_store if args.command == "diagnose" else scrub_store
    report = runner(args.directory)
    print(report.render())
    return 0 if report.healthy else 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    import sys

    sys.exit(main())
