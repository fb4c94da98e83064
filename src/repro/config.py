"""Engine configuration.

:class:`LSMConfig` is the single knob surface for every engine variant in
this repository: the classical leveling/tiering baselines, FADE (delete-aware
compaction), and KiWi (the key-weaving layout for secondary range deletes)
are all expressed as configurations of the same tree.  That mirrors the
paper's framing -- Acheron/Lethe is "an LSM engine with a small amount of
extra metadata, new compaction policies, and a new physical layout", not a
different data structure -- and guarantees that benchmark comparisons never
cross code paths.

Presets matching the configurations compared in the demonstration are
provided by :func:`baseline_config` and :func:`acheron_config`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError


class CompactionStyle(enum.Enum):
    """How runs are organized within levels.

    * ``LEVELING`` -- each level holds at most one sorted run; merges are
      file-granular (a file plus its overlap in the next level).
    * ``TIERING`` -- each level holds up to ``size_ratio`` runs; when full,
      all runs of the level merge into one run in the next level.
    * ``LAZY_LEVELING`` -- the Dostoevsky hybrid: tiering at every level
      except the last, which is kept as a single leveled run.  Write
      amplification close to tiering, point/range read and space behaviour
      close to leveling (most data lives in the leveled last level).
    """

    LEVELING = "leveling"
    TIERING = "tiering"
    LAZY_LEVELING = "lazy_leveling"


class CompactionGranularity(enum.Enum):
    """How much data one leveling compaction moves.

    * ``FILE`` -- partial compaction: one file plus its overlap in the
      next level (RocksDB-style; what Lethe/Acheron assume, since FADE
      picks individual files).
    * ``LEVEL`` -- classic full-level merges: the whole level merges with
      the whole next level (the original LSM paper's behaviour; kept for
      the design-space comparison).
    """

    FILE = "file"
    LEVEL = "level"


class FilePickPolicy(enum.Enum):
    """Which file a saturation-triggered leveling compaction selects.

    * ``MIN_OVERLAP`` -- the file with the least overlap in the next level
      (classic write-amplification-friendly choice; the baseline default).
    * ``TOMBSTONE_DENSITY`` -- the file whose entries are the most likely to
      be dropped or to invalidate data below, i.e. the highest fraction of
      tombstones, tie-broken by older tombstone age (FADE's choice).
    * ``OLDEST`` -- the file that has sat in the level the longest
      (round-robin-like; a common production default).
    """

    MIN_OVERLAP = "min_overlap"
    TOMBSTONE_DENSITY = "tombstone_density"
    OLDEST = "oldest"


@dataclass(frozen=True)
class DiskModel:
    """Latency model for the simulated block device.

    All values are microseconds of *modeled* time.  Defaults approximate a
    datacenter NVMe SSD: ~90us random page read, ~25us page program (write
    amortized through the device cache), and a small per-request overhead.
    The absolute values only matter for the modeled-time columns of the
    benchmark tables; every claim checked in EXPERIMENTS.md is stated in
    device page I/O counts, which this model merely prices.
    """

    read_page_us: float = 90.0
    write_page_us: float = 25.0
    request_overhead_us: float = 8.0

    def validate(self) -> None:
        if self.read_page_us < 0 or self.write_page_us < 0:
            raise ConfigError("disk latencies must be non-negative")
        if self.request_overhead_us < 0:
            raise ConfigError("request overhead must be non-negative")


@dataclass(frozen=True)
class LSMConfig:
    """Complete configuration of one engine instance.

    Shape parameters
    ----------------
    memtable_entries:
        Capacity of the in-memory write buffer, in entries.  A flush is
        triggered when the buffer reaches this size.
    size_ratio:
        Growth factor ``T`` between adjacent levels.  Level ``i`` (1-based)
        holds up to ``memtable_entries * T**i`` entries.
    policy:
        :class:`CompactionStyle` -- leveling or tiering.

    Physical layout
    ---------------
    entries_per_page:
        Entries stored per disk page; the unit of I/O accounting.
    pages_per_tile:
        ``h``, the number of pages per *delete tile*.  ``h == 1`` is the
        classical sort-key-only layout.  ``h > 1`` enables KiWi: tiles are
        ordered by sort key, pages *within* a tile are ordered by delete
        key, so a secondary range delete can drop whole pages.
    max_file_entries:
        Maximum entries per file (SSTable).  Runs are partitioned into
        files at this boundary so compaction can be file-granular.
        ``0`` means "use ``memtable_entries``".

    Filters, cache
    --------------
    bloom_bits_per_key:
        Memory budget of the per-file Bloom filters.  ``0`` disables them.
    cache_pages:
        Capacity of the shared block cache in pages.  ``0`` disables it.

    Delete-awareness (the paper's contribution)
    -------------------------------------------
    delete_persistence_threshold:
        ``D_th`` in clock ticks.  ``None`` disables FADE entirely -- the
        engine then behaves as the state-of-the-art baseline with no
        persistence guarantee.  When set, every tombstone is guaranteed to
        be purged within ``D_th`` ticks of insertion.
    file_pick:
        :class:`FilePickPolicy` for saturation compactions.
    drop_tombstones_at_bottom:
        Purge point tombstones when they are merged into the last level.
        Always true in practice; exposed for the T3 ablation.

    Byte accounting
    ---------------
    key_size_bytes / value_size_bytes:
        Logical sizes used for byte-level metrics (the engine itself is
        value-agnostic).  A tombstone occupies ``key_size_bytes +
        tombstone_overhead_bytes``.
    """

    # --- shape ---
    memtable_entries: int = 4096
    size_ratio: int = 4
    policy: CompactionStyle = CompactionStyle.LEVELING

    # --- physical layout ---
    entries_per_page: int = 64
    pages_per_tile: int = 1
    max_file_entries: int = 0

    # --- filters & cache ---
    bloom_bits_per_key: float = 10.0
    #: ``"uniform"`` gives every file the same bits/key; ``"monkey"``
    #: reallocates in the Monkey style -- deeper (exponentially larger)
    #: levels get fewer bits, since a false positive there is amortized
    #: over more data.  Bits drop by ``ln(T)/ln(2)^2`` per level, the
    #: equal-marginal-benefit spacing, floored at zero.
    bloom_allocation: str = "uniform"
    #: With the KiWi weave (h > 1), a point lookup must probe up to ``h``
    #: candidate pages per tile.  Page filters give every woven tile one
    #: bit-sliced Bloom filter over its pages (built in the same pass as
    #: the file filter, at the same bits/key) so absent candidates are
    #: skipped without I/O -- the paper's mitigation for the weave's
    #: point-read penalty, at roughly double the filter memory.  No effect
    #: at h == 1.
    kiwi_page_filters: bool = True
    #: Key the bloom digests with a secret per-tree random salt (generated
    #: at create, persisted in the manifest).  Off by default: unsalted
    #: trees keep the historical deterministic digests, so every archived
    #: benchmark and durable store stays bit-identical.  Salted trees
    #: defeat offline-crafted false-positive key streams (an adversary
    #: cannot evaluate the keyed hash without the salt).
    bloom_salted: bool = False
    cache_pages: int = 0
    #: Hardened block-cache admission: a TinyLFU doorkeeper (one-hit
    #: wonders never touch the frequency sketch, so floods cannot decay
    #: the hot set's frequencies) plus a negative-lookup guard (pages that
    #: only entered the cache to answer a bloom false positive are dropped
    #: once the miss is confirmed).  Off by default -- the unhardened
    #: cache keeps its exact historical admission decisions.
    cache_hardened: bool = False

    # --- compaction shape ---
    granularity: CompactionGranularity = CompactionGranularity.FILE
    #: Move a file to the next level without rewriting it when its key
    #: range has no overlap there (RocksDB's trivial move).  Free in
    #: device I/O; disable to model engines that always rewrite.
    trivial_moves: bool = True

    # --- delete-awareness ---
    delete_persistence_threshold: int | None = None
    file_pick: FilePickPolicy = FilePickPolicy.MIN_OVERLAP
    drop_tombstones_at_bottom: bool = True

    # --- byte accounting ---
    key_size_bytes: int = 16
    value_size_bytes: int = 112
    tombstone_overhead_bytes: int = 8

    # --- device model ---
    disk: DiskModel = field(default_factory=DiskModel)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # validation and derived quantities
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigError` if any field is out of range."""
        if self.memtable_entries < 1:
            raise ConfigError(f"memtable_entries must be >= 1, got {self.memtable_entries}")
        if self.size_ratio < 2:
            raise ConfigError(f"size_ratio must be >= 2, got {self.size_ratio}")
        if self.entries_per_page < 1:
            raise ConfigError(f"entries_per_page must be >= 1, got {self.entries_per_page}")
        if self.pages_per_tile < 1:
            raise ConfigError(f"pages_per_tile must be >= 1, got {self.pages_per_tile}")
        if self.max_file_entries < 0:
            raise ConfigError(f"max_file_entries must be >= 0, got {self.max_file_entries}")
        if self.bloom_bits_per_key < 0:
            raise ConfigError(f"bloom_bits_per_key must be >= 0, got {self.bloom_bits_per_key}")
        if self.bloom_allocation not in ("uniform", "monkey"):
            raise ConfigError(
                f"bloom_allocation must be 'uniform' or 'monkey', got {self.bloom_allocation!r}"
            )
        if self.cache_pages < 0:
            raise ConfigError(f"cache_pages must be >= 0, got {self.cache_pages}")
        if self.delete_persistence_threshold is not None and self.delete_persistence_threshold < 1:
            raise ConfigError(
                "delete_persistence_threshold (D_th) must be >= 1 tick or None, "
                f"got {self.delete_persistence_threshold}"
            )
        if self.key_size_bytes < 1 or self.value_size_bytes < 0:
            raise ConfigError("entry byte sizes must be positive")
        if self.tombstone_overhead_bytes < 0:
            raise ConfigError("tombstone_overhead_bytes must be >= 0")
        if not isinstance(self.policy, CompactionStyle):
            raise ConfigError(f"policy must be a CompactionStyle, got {self.policy!r}")
        if not isinstance(self.granularity, CompactionGranularity):
            raise ConfigError(
                f"granularity must be a CompactionGranularity, got {self.granularity!r}"
            )
        if not isinstance(self.file_pick, FilePickPolicy):
            raise ConfigError(f"file_pick must be a FilePickPolicy, got {self.file_pick!r}")
        self.disk.validate()

    @property
    def fade_enabled(self) -> bool:
        """True when the engine enforces a delete persistence threshold."""
        return self.delete_persistence_threshold is not None

    @property
    def kiwi_enabled(self) -> bool:
        """True when the key-weaving layout is active (``h > 1``)."""
        return self.pages_per_tile > 1

    @property
    def file_entry_limit(self) -> int:
        """Resolved maximum entries per file."""
        return self.max_file_entries or self.memtable_entries

    @property
    def page_size_bytes(self) -> int:
        """Logical page size implied by the entry sizes."""
        return self.entries_per_page * (self.key_size_bytes + self.value_size_bytes)

    def level_capacity_entries(self, level: int) -> int:
        """Entry capacity of on-disk level ``level`` (1-based)."""
        if level < 1:
            raise ValueError(f"on-disk levels are 1-based, got {level}")
        return self.memtable_entries * self.size_ratio**level

    def bloom_bits_for_level(self, level: int) -> float:
        """Bits/key for files built at ``level`` under the allocation policy."""
        if level < 1:
            raise ValueError(f"on-disk levels are 1-based, got {level}")
        if self.bloom_allocation == "uniform" or self.bloom_bits_per_key == 0:
            return self.bloom_bits_per_key
        drop_per_level = math.log(self.size_ratio) / (math.log(2) ** 2)
        return max(0.0, self.bloom_bits_per_key - drop_per_level * (level - 1))

    def entry_bytes(self, is_tombstone: bool) -> int:
        """Logical size of one entry for byte-level accounting."""
        if is_tombstone:
            return self.key_size_bytes + self.tombstone_overhead_bytes
        return self.key_size_bytes + self.value_size_bytes

    def with_updates(self, **changes: object) -> "LSMConfig":
        """Return a copy with ``changes`` applied (validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # serialization (the manifest stores the engine's configuration so a
    # durable directory is self-describing -- tools can open it without
    # being told how it was created)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation (enums by value, nested disk model)."""
        return {
            "memtable_entries": self.memtable_entries,
            "size_ratio": self.size_ratio,
            "policy": self.policy.value,
            "granularity": self.granularity.value,
            "trivial_moves": self.trivial_moves,
            "entries_per_page": self.entries_per_page,
            "pages_per_tile": self.pages_per_tile,
            "max_file_entries": self.max_file_entries,
            "bloom_bits_per_key": self.bloom_bits_per_key,
            "bloom_allocation": self.bloom_allocation,
            "kiwi_page_filters": self.kiwi_page_filters,
            "bloom_salted": self.bloom_salted,
            "cache_pages": self.cache_pages,
            "cache_hardened": self.cache_hardened,
            "delete_persistence_threshold": self.delete_persistence_threshold,
            "file_pick": self.file_pick.value,
            "drop_tombstones_at_bottom": self.drop_tombstones_at_bottom,
            "key_size_bytes": self.key_size_bytes,
            "value_size_bytes": self.value_size_bytes,
            "tombstone_overhead_bytes": self.tombstone_overhead_bytes,
            "disk": {
                "read_page_us": self.disk.read_page_us,
                "write_page_us": self.disk.write_page_us,
                "request_overhead_us": self.disk.request_overhead_us,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LSMConfig":
        """Inverse of :meth:`to_dict`; raises ConfigError on bad data.

        Fields absent from ``data`` take their defaults, so manifests
        written by older versions of the library keep loading after new
        knobs are added; unknown fields are rejected.
        """
        try:
            fields = dict(data)
            if "policy" in fields:
                fields["policy"] = CompactionStyle(fields["policy"])
            if "granularity" in fields:
                fields["granularity"] = CompactionGranularity(fields["granularity"])
            if "file_pick" in fields:
                fields["file_pick"] = FilePickPolicy(fields["file_pick"])
            if "disk" in fields:
                fields["disk"] = DiskModel(**fields["disk"])
            return cls(**fields)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid serialized config: {exc}") from exc


def baseline_config(**overrides: object) -> LSMConfig:
    """The state-of-the-art baseline the paper compares against.

    Leveling, Bloom filters, no delete-awareness: tombstones sink only
    through ordinary saturation compactions, so delete persistence latency
    is unbounded.
    """
    return LSMConfig(**overrides)  # type: ignore[arg-type]


def acheron_config(
    delete_persistence_threshold: int = 50_000,
    pages_per_tile: int = 8,
    **overrides: object,
) -> LSMConfig:
    """The demonstrated delete-aware engine: FADE + KiWi.

    ``delete_persistence_threshold`` is ``D_th`` in clock ticks;
    ``pages_per_tile`` is KiWi's ``h``.  File picking defaults to the
    delete-aware policy but may be overridden (the T3 ablation does).
    All other knobs default to the same values as :func:`baseline_config`
    so the pair differ only in delete-awareness.
    """
    overrides.setdefault("file_pick", FilePickPolicy.TOMBSTONE_DENSITY)
    return LSMConfig(
        delete_persistence_threshold=delete_persistence_threshold,
        pages_per_tile=pages_per_tile,
        **overrides,  # type: ignore[arg-type]
    )
