"""The user-facing engine facade.

:class:`AcheronEngine` is the public API of this library: a key-value store
with puts, point deletes carrying a persistence guarantee, secondary range
deletes, point and range reads, and rich observability.  It wires together
the LSM substrate, the FADE scheduler, the persistence tracker, and the
KiWi delete executors, and exposes one :meth:`stats` snapshot gathering
everything the paper's evaluation measures.

Typical use::

    from repro import AcheronEngine

    engine = AcheronEngine.acheron(delete_persistence_threshold=50_000)
    engine.put("user:42", b"profile-bytes")
    engine.delete("user:42")              # guaranteed purged within D_th
    engine.delete_range(0, cutoff_tick)   # secondary delete, via KiWi
    print(engine.stats().persistence.max_latency)

``AcheronEngine.baseline()`` builds the state-of-the-art comparison engine
(same tree, delete-awareness off) so experiments compare like with like.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.clock import LogicalClock
from repro.config import LSMConfig, acheron_config, baseline_config
from repro.core.kiwi import (
    SecondaryDeleteReport,
    full_rewrite_delete,
    kiwi_range_delete,
    lazy_range_delete,
)
from repro.core.persistence import PersistenceStats, PersistenceTracker
from repro.errors import ConfigError
from repro.lsm.tree import LSMTree
from repro.metrics.amplification import AmplificationReport, measure_amplification
from repro.metrics.shape import LevelSummary, tree_shape
from repro.storage.disk import IOStats


@dataclass(frozen=True)
class EngineStats:
    """Everything the evaluation measures, in one snapshot."""

    io: IOStats
    amplification: AmplificationReport
    persistence: PersistenceStats
    shape: list[LevelSummary]
    counters: dict[str, int]
    flush_count: int
    compaction_count: int
    cache_hit_rate: float
    tick: int
    #: The block cache's full stats section plus the per-level read-path
    #: pruning counters (see :meth:`LSMTree.read_stats`).
    cache: dict = None  # type: ignore[assignment]
    read_path: list = None  # type: ignore[assignment]
    #: Write-path observability (flush/compaction queues, stalls, worker
    #: throughput); see :meth:`LSMTree.write_stats`.
    write_path: dict = None  # type: ignore[assignment]
    #: Per-shard breakdown rows (range, size, FADE/``D_th`` compliance);
    #: populated only by :class:`~repro.shard.engine.ShardedEngine`.
    shards: list = None  # type: ignore[assignment]
    #: Range-tombstone fence row: live count, oldest fence age vs the
    #: ``D_th`` guarantee, and how much deferred resolution compactions
    #: have already performed.
    fences: dict = None  # type: ignore[assignment]
    #: Adaptive memory governor section (per-shard budgets, decision and
    #: resize counters, recent events); populated only when a
    #: :class:`~repro.shard.engine.ShardedEngine` arms the governor.
    memory: dict = None  # type: ignore[assignment]
    #: Self-tuning compaction section (windows evaluated, live switches,
    #: recent decisions); populated only when a
    #: :class:`~repro.shard.engine.ShardedEngine` arms the policy tuner.
    policy: dict = None  # type: ignore[assignment]
    #: Served-engine section (admission/shedding/throughput counters);
    #: populated only by :meth:`~repro.server.core.EngineServer.stats`
    #: and the wire ``STATS`` op.
    server: dict = None  # type: ignore[assignment]

    def to_dict(self) -> dict:
        """JSON-safe snapshot (for logging, dashboards, bench archives)."""
        from dataclasses import asdict

        def scrub(value):
            if isinstance(value, float) and (value != value or abs(value) == float("inf")):
                return str(value)
            if isinstance(value, dict):
                return {k: scrub(v) for k, v in value.items()}
            if isinstance(value, list):
                return [scrub(v) for v in value]
            return value

        return scrub(
            {
                "tick": self.tick,
                "io": asdict(self.io),
                "amplification": asdict(self.amplification),
                "persistence": asdict(self.persistence),
                "shape": [asdict(level) for level in self.shape],
                "counters": dict(self.counters),
                "flush_count": self.flush_count,
                "compaction_count": self.compaction_count,
                "cache_hit_rate": self.cache_hit_rate,
                "cache": dict(self.cache) if self.cache else {},
                "read_path": list(self.read_path) if self.read_path else [],
                "write_path": dict(self.write_path) if self.write_path else {},
                "shards": list(self.shards) if self.shards else [],
                "fences": dict(self.fences) if self.fences else {},
                "memory": dict(self.memory) if self.memory else {},
                "policy": dict(self.policy) if self.policy else {},
                "server": dict(self.server) if self.server else {},
            }
        )


class AcheronEngine:
    """A delete-aware LSM key-value engine (see module docstring)."""

    def __init__(
        self,
        config: LSMConfig | None = None,
        directory: str | None = None,
        clock: LogicalClock | None = None,
        track_persistence: bool = True,
        read_only: bool = False,
        wal_sync: bool = False,
        faults: Any = None,
        degraded_ok: bool = False,
        workers: int | None = None,
    ) -> None:
        if workers is None:
            # Env-driven default so the whole suite can be re-run
            # concurrently (CI's REPRO_WORKERS=4 job).  Fault-injected
            # engines stay serial unless the caller opts in explicitly:
            # the crash matrix's classic rows depend on deterministic
            # single-threaded fault ordering.
            if faults is None:
                workers = int(os.environ.get("REPRO_WORKERS", "1") or "1")
            else:
                workers = 1
        if config is None and directory is not None:
            # A durable store is self-describing: prefer its recorded
            # config over the default when none is given explicitly.
            from repro.storage.filestore import FileStore

            manifest = FileStore(directory).read_manifest()
            if manifest is not None and "config" in manifest:
                config = LSMConfig.from_dict(manifest["config"])
        self.config = config or acheron_config()
        #: The fault injector this engine was opened with (None for clean
        #: opens).  The workload runner consults it: multi-writer replay
        #: against a fault-injected serial engine is refused, not silently
        #: degraded.
        self.faults = faults
        self.tracker = (
            PersistenceTracker(threshold=self.config.delete_persistence_threshold)
            if track_persistence
            else None
        )
        if directory is not None:
            self.tree = LSMTree.open(
                self.config,
                directory,
                listener=self.tracker,
                wal_sync=wal_sync,
                read_only=read_only,
                faults=faults,
                degraded_ok=degraded_ok,
                workers=workers,
            )
        else:
            if read_only:
                raise ConfigError("read_only requires a durable directory")
            self.tree = LSMTree(
                self.config, clock=clock, listener=self.tracker, workers=workers
            )

    # ------------------------------------------------------------------
    # named constructors (the two engines the demo compares)
    # ------------------------------------------------------------------
    @classmethod
    def acheron(
        cls,
        delete_persistence_threshold: int = 50_000,
        pages_per_tile: int = 8,
        directory: str | None = None,
        workers: int | None = None,
        **config_overrides: object,
    ) -> "AcheronEngine":
        """The demonstrated engine: FADE + KiWi enabled."""
        cfg = acheron_config(
            delete_persistence_threshold=delete_persistence_threshold,
            pages_per_tile=pages_per_tile,
            **config_overrides,
        )
        return cls(cfg, directory=directory, workers=workers)

    @classmethod
    def baseline(
        cls,
        directory: str | None = None,
        workers: int | None = None,
        **config_overrides: object,
    ) -> "AcheronEngine":
        """The state-of-the-art baseline: no persistence guarantee."""
        return cls(
            baseline_config(**config_overrides), directory=directory, workers=workers
        )

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def put(self, key: Any, value: Any, delete_key: int | None = None) -> None:
        """Insert or update ``key`` (see :meth:`LSMTree.put`)."""
        self.tree.put(key, value, delete_key=delete_key)

    def delete(self, key: Any) -> None:
        """Logically delete ``key``; FADE bounds its physical purge."""
        self.tree.delete(key)

    def put_many(self, items: Iterable[tuple]) -> int:
        """Batched puts: ``(key, value)`` or ``(key, value, delete_key)``
        tuples, applied with amortized per-op overhead (see
        :meth:`LSMTree.put_many`).  Returns the number applied."""
        return self.tree.put_many(items)

    def apply_batch(self, ops: Iterable[tuple]) -> int:
        """Apply a mixed ingest batch: ``("put", key, value[, delete_key])``
        and ``("delete", key)`` tuples.  Behaviourally identical to issuing
        the operations one by one, with the WAL appends and per-op
        bookkeeping amortized across the batch (see
        :meth:`LSMTree.apply_batch`).  Returns the number applied."""
        return self.tree.apply_batch(ops)

    def get(self, key: Any, default: Any = None) -> Any:
        """Point lookup; ``default`` for missing or deleted keys."""
        return self.tree.get(key, default=default)

    def contains(self, key: Any) -> bool:
        return self.tree.contains(key)

    def scan(
        self,
        lo: Any,
        hi: Any,
        limit: int | None = None,
        reverse: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """Live pairs with ``lo <= key <= hi`` (descending when ``reverse``)."""
        return self.tree.scan(lo, hi, limit=limit, reverse=reverse)

    def delete_range(
        self, delete_key_lo: int, delete_key_hi: int, method: str = "auto"
    ) -> SecondaryDeleteReport:
        """Delete every value whose *delete key* lies in the given range.

        ``method`` selects the executor: ``"lazy"`` (persist a
        range-tombstone fence -- O(1) at call time, resolved by later
        compactions), ``"kiwi"`` (eager page drops), ``"full_rewrite"``
        (the baseline full-tree rewrite), ``"eager"`` (kiwi when the
        weave is enabled, full rewrite otherwise), or ``"auto"`` (the
        eager resolution -- i.e. each engine pays its own paper-accurate
        physical cost; lazy stays opt-in so cost-model comparisons remain
        apples-to-apples).
        """
        if method == "lazy":
            # The whole point: no exclusive() quiesce, no file rewrites.
            # One WAL append + manifest publish under the writer lock.
            return lazy_range_delete(self.tree, delete_key_lo, delete_key_hi)
        wp = self.tree.write_path
        if wp is not None and not wp.owns_inline():
            # Eager secondary deletes rewrite structure with serial code
            # paths; quiesce the background workers and run inline.
            with wp.exclusive():
                return self.delete_range(delete_key_lo, delete_key_hi, method=method)
        if method in ("auto", "eager"):
            method = "kiwi" if self.config.kiwi_enabled else "full_rewrite"
        if method == "kiwi":
            return kiwi_range_delete(self.tree, delete_key_lo, delete_key_hi)
        if method == "full_rewrite":
            return full_rewrite_delete(self.tree, delete_key_lo, delete_key_hi)
        raise ValueError(f"unknown secondary delete method {method!r}")

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def flush(self) -> None:
        self.tree.flush()

    @property
    def policy(self) -> Any:
        """The live compaction policy (a :class:`CompactionStyle`)."""
        return self.tree.config.policy

    def set_policy(self, style: Any) -> bool:
        """Switch the live compaction policy; True when it changed.

        Delegates to :meth:`LSMTree.set_policy` (safe under background
        workers, durable through the manifest) and re-syncs the facade's
        config reference with the tree's rebound one.
        """
        changed = self.tree.set_policy(style)
        if changed:
            self.config = self.tree.config
        return changed

    def compact_all(self) -> None:
        """Force a full tree merge (the baseline's delete-forcing tool)."""
        self.tree.full_compaction()

    def advance_time(self, ticks: int) -> None:
        """Model an idle period so FADE deadlines can come due."""
        self.tree.advance_time(ticks)

    def close(self) -> None:
        self.tree.close()

    def __enter__(self) -> "AcheronEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """One consistent snapshot of every evaluation metric."""
        # Drain in-flight flushes/compactions first: amplification and
        # shape walk live structure, and a half-installed level would
        # make the numbers incoherent.  No-op for serial engines.
        self.tree.write_barrier()
        now = self.tree.clock.now()
        tracker = self.tracker or PersistenceTracker()
        # read_stats() mirrors the cache totals into tree.counters, so it
        # must run before the counters snapshot is taken.
        read_stats = self.tree.read_stats()
        return EngineStats(
            io=self.tree.disk.snapshot(),
            amplification=measure_amplification(self.tree),
            persistence=tracker.stats(now),
            shape=tree_shape(self.tree),
            counters=dict(self.tree.counters),
            flush_count=self.tree.flush_count,
            compaction_count=len(self.tree.compaction_log),
            cache_hit_rate=self.tree.cache.hit_rate,
            tick=now,
            cache=read_stats["cache"],
            read_path=read_stats["levels"],
            write_path=self.tree.write_stats(),
            fences=self.fence_stats(),
        )

    def fence_stats(self) -> dict:
        """The range-tombstone fence row (count, oldest age vs ``D_th``)."""
        now = self.tree.clock.now()
        fences = self.tree.fences
        d_th = self.config.delete_persistence_threshold
        oldest_age = (
            now - min(f.write_time for f in fences) if fences else None
        )
        return {
            "live": len(fences),
            "oldest_age": oldest_age,
            "threshold": d_th,
            "within_threshold": (
                None
                if oldest_age is None or not d_th
                else oldest_age <= d_th
            ),
            "entries_resolved_by_compaction": sum(
                getattr(e, "fence_resolved", 0) for e in self.tree.compaction_log
            ),
        }

    def persistence_stats(self) -> PersistenceStats:
        tracker = self.tracker or PersistenceTracker()
        return tracker.stats(self.tree.clock.now())

    def compliance_report(self) -> dict:
        """The privacy-compliance audit in one call.

        What a deletion-compliance review asks for: how many deletes are
        outstanding, the oldest exposure, whether the configured deadline
        has ever been missed, and how much logically dead data remains on
        the device.  JSON-safe, suitable for export.
        """
        now = self.tree.clock.now()
        stats = self.persistence_stats()
        amp = measure_amplification(self.tree)
        dead_bytes = max(0, amp.bytes_on_disk - amp.live_bytes)
        fence_row = self.fence_stats()
        return {
            "tick": now,
            "guarantee_ticks": self.config.delete_persistence_threshold,
            "deletes_registered": stats.registered,
            "deletes_persisted": stats.persisted,
            "deletes_superseded": stats.superseded,
            "deletes_pending": stats.pending,
            "oldest_pending_age": stats.oldest_pending_age,
            "deadline_violations": stats.violations,
            # Range deletes carry the same D_th promise as point deletes:
            # a live fence past the threshold is a compliance failure too.
            "compliant": stats.compliant()
            and fence_row["within_threshold"] is not False,
            "tombstones_on_disk": amp.tombstones_on_disk,
            "logically_dead_bytes_on_disk": dead_bytes,
            # A live fence past the threshold means shadowed data is
            # overstaying its welcome on the device.
            "range_fences_live": fence_row["live"],
            "oldest_fence_age": fence_row["oldest_age"],
            "fences_within_threshold": fence_row["within_threshold"],
        }

    @property
    def degraded(self) -> bool:
        """True when recovery skipped corrupt files (read-only salvage)."""
        return self.tree.degraded

    def verify_invariants(self) -> None:
        """Integrity audit of the live tree (see :meth:`LSMTree.verify_invariants`)."""
        self.tree.verify_invariants()

    @property
    def disk(self) -> Any:
        return self.tree.disk

    @property
    def clock(self) -> LogicalClock:
        return self.tree.clock
