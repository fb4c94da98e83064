"""Files (SSTables) and sorted runs.

A **file** is the immutable unit of compaction: a sequence of delete tiles
plus in-memory metadata -- Bloom filter, tile fence pointers, entry and
tombstone counts, and the ``write_time`` of its *oldest tombstone*.  That
last field is the "very small amount of additional metadata" the paper adds
to make compaction delete-aware: FADE's per-level TTL triggers compare it
against the clock, and the tombstone-density file picker uses the counts.

A **run** is a sort-key-partitioned sequence of files (non-overlapping,
ascending).  Leveling keeps one run per level; tiering keeps up to ``T``.

All page access goes through a :class:`PageReader`, which consults the
shared block cache and charges the simulated disk on misses -- files never
touch the device directly, so I/O accounting is airtight.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

from repro.config import LSMConfig
from repro.filters.bloom import (
    BloomFilter,
    build_tile_filters,
    hash_pairs,
    key_digest,
    key_hash_pair,
)
from repro.filters.fence import FenceIndex
from repro.lsm.entry import Entry
from repro.lsm.page import DeleteTile, Page, weave_tile
from repro.storage.cache import BlockCache
from repro.storage.disk import CATEGORY_QUERY, SimulatedDisk


class PageReader:
    """Cache-aware, category-tagged page access for the read path."""

    __slots__ = ("disk", "cache", "category")

    def __init__(
        self,
        disk: SimulatedDisk,
        cache: BlockCache,
        category: str = CATEGORY_QUERY,
    ) -> None:
        self.disk = disk
        self.cache = cache
        self.category = category

    def read_page(
        self,
        file: "SSTableFile",
        tile_idx: int,
        page_idx: int,
        pinned: bool = False,
    ) -> Page:
        """Fetch one page, charging the device only on a cache miss.

        ``pinned`` marks the page as preferentially retained by the cache
        (the tree pins level-1 pages -- the hottest, most-churned data).
        """
        flat = file.flat_page_index(tile_idx, page_idx)
        cached = self.cache.get(file.file_id, flat)
        if cached is not None:
            return cached
        self.disk.read_pages(1, self.category)
        page = file.tiles[tile_idx].pages[page_idx]
        self.cache.put(file.file_id, flat, page, pinned)
        return page

    def read_page_admitting(
        self,
        file: "SSTableFile",
        tile_idx: int,
        page_idx: int,
        pinned: bool = False,
    ) -> tuple[Page, int | None]:
        """Like :meth:`read_page`, but also reports a fresh admission.

        Returns ``(page, flat_index)`` on a cache miss and ``(page, None)``
        on a hit, so a negative point lookup can hand the freshly admitted
        page back to the hardened cache's negative-lookup guard (a page
        that was *already* resident earned its slot and is never dropped).
        """
        flat = file.flat_page_index(tile_idx, page_idx)
        cached = self.cache.get(file.file_id, flat)
        if cached is not None:
            return cached, None
        self.disk.read_pages(1, self.category)
        page = file.tiles[tile_idx].pages[page_idx]
        self.cache.put(file.file_id, flat, page, pinned)
        return page, flat

    def read_tile(
        self, file: "SSTableFile", tile_idx: int, pinned: bool = False
    ) -> list[Page]:
        """Fetch every page of a tile, batching the misses into one request.

        A range scan must read the whole tile anyway (the weave means any
        page may hold in-range keys), and the pages are physically
        contiguous -- so the misses are charged as *one* sequential device
        request of N pages instead of N point requests.  This is the scan
        path's prefetch: by the time the merge consumes the tile, every
        page is resident.
        """
        cache = self.cache
        file_id = file.file_id
        pages = file.tiles[tile_idx].pages
        base = file.flat_page_index(tile_idx, 0)
        missing = 0
        for page_idx, page in enumerate(pages):
            if cache.get(file_id, base + page_idx) is None:
                missing += 1
                cache.put(file_id, base + page_idx, page, pinned)
        if missing:
            self.disk.read_pages(missing, self.category)
        return pages


class SSTableFile:
    """An immutable sorted file of delete tiles plus its metadata."""

    __slots__ = (
        "file_id",
        "tiles",
        "bloom",
        "tile_fence",
        "entry_count",
        "tombstone_count",
        "min_key",
        "max_key",
        "min_delete_key",
        "max_delete_key",
        "oldest_tombstone_time",
        "created_at",
        "_tile_page_offsets",
        "page_count",
        "_seqno_bounds",
        "fence_known_clear",
    )

    def __init__(
        self,
        file_id: int,
        tiles: list[DeleteTile],
        bloom: BloomFilter,
        created_at: int,
    ) -> None:
        if not tiles:
            raise ValueError("a file must hold at least one tile")
        self.file_id = file_id
        self.tiles = tiles
        self.bloom = bloom
        self.created_at = created_at
        self.tile_fence = FenceIndex.over(tiles, "min_key", "max_key")
        self.entry_count = sum(t.entry_count for t in tiles)
        self.tombstone_count = sum(t.tombstone_count for t in tiles)
        self.min_key = tiles[0].min_key
        self.max_key = tiles[-1].max_key
        # Delete-key (secondary-attribute) span, O(tiles) from tile bounds.
        # Range-tombstone fences compare their window against this span to
        # prune whole files without touching entries.
        self.min_delete_key = min(t.min_delete_key for t in tiles)
        self.max_delete_key = max(t.max_delete_key for t in tiles)
        self.oldest_tombstone_time = _oldest_tombstone_time(tiles)
        # Seqno bounds are computed lazily on first use: only fence
        # shadowing consults them, and an eager per-entry pass here would
        # tax every flush and compaction whether or not fences exist.
        self._seqno_bounds: tuple[int, int] | None = None
        #: Fence seqnos proven (by a full walk) to shadow nothing in this
        #: file; immutability makes the memo permanent.
        self.fence_known_clear: set[int] = set()
        offsets = []
        total = 0
        for tile in tiles:
            offsets.append(total)
            total += len(tile)
        self._tile_page_offsets = offsets
        self.page_count = total

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        file_id: int,
        entries: list[Entry],
        config: LSMConfig,
        created_at: int,
        level: int = 1,
        salt: bytes | None = None,
    ) -> "SSTableFile":
        """Build one file from sort-key-ordered, unique-key entries.

        ``level`` is where the file will be installed; under the Monkey
        allocation it determines the Bloom filter's memory budget.
        ``salt`` keys the filter digests (salted trees pass their per-tree
        salt; see :func:`repro.filters.bloom.key_digest`).
        """
        if not entries:
            raise ValueError("cannot build an empty file")
        tile_span = config.entries_per_page * config.pages_per_tile
        tiles = [
            weave_tile(
                entries[i : i + tile_span],
                config.entries_per_page,
                config.pages_per_tile,
            )
            for i in range(0, len(entries), tile_span)
        ]
        return cls(file_id, tiles, build_filters(tiles, config, level, salt), created_at)

    @classmethod
    def from_tiles(
        cls,
        file_id: int,
        tiles: list[DeleteTile],
        bloom: BloomFilter,
        created_at: int,
    ) -> "SSTableFile":
        """Rebuild a file from surviving tiles (secondary-delete path).

        The Bloom filter is inherited: it may now contain deleted keys,
        which only costs false positives, never false negatives.
        """
        return cls(file_id, tiles, bloom, created_at)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def flat_page_index(self, tile_idx: int, page_idx: int) -> int:
        """Global page number within the file (the cache key component)."""
        return self._tile_page_offsets[tile_idx] + page_idx

    @property
    def tombstone_density(self) -> float:
        """Fraction of entries that are tombstones (FADE's picking score)."""
        return self.tombstone_count / self.entry_count if self.entry_count else 0.0

    def _compute_seqno_bounds(self) -> tuple[int, int]:
        lo = hi = None
        for tile in self.tiles:
            for page in tile.pages:
                for entry in page.entries:
                    s = entry.seqno
                    if lo is None:
                        lo = hi = s
                    elif s < lo:
                        lo = s
                    elif s > hi:
                        hi = s
        bounds = (lo, hi)
        self._seqno_bounds = bounds
        return bounds

    @property
    def min_seqno(self) -> int:
        """Smallest seqno in the file (lazy; cached -- files are immutable)."""
        bounds = self._seqno_bounds
        if bounds is None:
            bounds = self._compute_seqno_bounds()
        return bounds[0]

    @property
    def max_seqno(self) -> int:
        """Largest seqno in the file (lazy; cached -- files are immutable)."""
        bounds = self._seqno_bounds
        if bounds is None:
            bounds = self._compute_seqno_bounds()
        return bounds[1]

    def overlaps(self, lo: Any, hi: Any) -> bool:
        return not (self.max_key < lo or self.min_key > hi)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(
        self,
        key: Any,
        reader: PageReader,
        pinned: bool = False,
        tile_idx: int | None = None,
        hashed: tuple[int, int] | None = None,
    ) -> Entry | None:
        """Point lookup: fence -> candidate pages -> binary search.

        The file-level Bloom filter is the *caller's* job (the run
        consults it before descending).  In a woven tile the tile filter
        names the candidate pages before any I/O, and each candidate is
        read only if its key range covers the key.  A single-page tile
        (the classical ``h == 1`` layout) skips the candidate walk: the
        tile fence already proved the key can only live in that page.
        ``tile_idx`` lets a caller that already located the tile (the
        tree's cache-first probe) skip the second fence search, and
        ``hashed`` lets it pass the :func:`key_hash_pair` it probed the
        file filter with.
        """
        if tile_idx is None:
            tile_idx = self.tile_fence.locate(key)
        if tile_idx is None:
            return None
        tile = self.tiles[tile_idx]
        pages = tile.pages
        hardened = reader.cache.hardened
        if len(pages) == 1:
            if not hardened:
                return reader.read_page(self, tile_idx, 0, pinned).get(key)
            candidates = 1
        elif tile.filter is None:
            candidates = (1 << len(pages)) - 1
        else:
            if hashed is None:
                hashed = key_hash_pair(key, self.bloom.salt)
            candidates = tile.filter.candidates(hashed[0], hashed[1])
        # Hardened cache: track fresh admissions so that when the lookup
        # turns out negative (a filter false positive paid page I/O for
        # nothing) the pages admitted on its behalf can be handed to the
        # negative-lookup guard instead of displacing the hot set.
        admitted: list[int] = []
        entry = None
        while candidates:  # lowest page first, as the weave orders them
            low = candidates & -candidates
            candidates ^= low
            page_idx = low.bit_length() - 1
            if not pages[page_idx].covers_key(key):
                continue
            if hardened:
                page, flat = reader.read_page_admitting(self, tile_idx, page_idx, pinned)
                if flat is not None:
                    admitted.append(flat)
            else:
                page = reader.read_page(self, tile_idx, page_idx, pinned)
            entry = page.get(key)
            if entry is not None:
                return entry
        for flat in admitted:
            reader.cache.note_negative(self.file_id, flat)
        return None

    def all_entries(self) -> list[Entry]:
        """All entries in sort-key order as a list, *without* charging I/O.

        Compaction charges its inputs as one bulk sequential read
        (``page_count`` pages) before calling this; see the executor.
        Single-tile files (and single-page tiles) return internal lists
        directly -- callers must not mutate the result.
        """
        tiles = self.tiles
        if len(tiles) == 1:
            return tiles[0].entries_sorted()
        out: list[Entry] = []
        for tile in tiles:
            out.extend(tile.entries_sorted())
        return out

    def iter_all_entries(self) -> Iterator[Entry]:
        """Iterator form of :meth:`all_entries` (kept for read paths)."""
        return iter(self.all_entries())

    def check_invariants(self) -> None:
        """Structural self-check used by tests (AssertionError on failure)."""
        assert self.tiles, "file with no tiles"
        prev_max = None
        for tile in self.tiles:
            assert tile.pages, "tile with no pages"
            if prev_max is not None:
                assert tile.min_key > prev_max, "tiles overlap in sort key"
            prev_max = tile.max_key
            for page in tile.pages:
                keys = [e.key for e in page.entries]
                assert keys == sorted(keys), "page entries unsorted"
        assert self.entry_count == sum(t.entry_count for t in self.tiles)
        assert self.tombstone_count == sum(t.tombstone_count for t in self.tiles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSTableFile(id={self.file_id}, {self.entry_count} entries, "
            f"{self.tombstone_count} tombstones, {self.page_count} pages, "
            f"keys=[{self.min_key!r},{self.max_key!r}])"
        )


def build_filters(
    tiles: list[DeleteTile],
    config: LSMConfig,
    level: int,
    salt: bytes | None = None,
    file_filter: bool = True,
) -> BloomFilter | None:
    """Build a file's Bloom filter and attach its tiles' page filters.

    The one filter builder: flushes, compactions, recovery and KiWi
    rewrites all come here, at the budget of the ``level`` the tiles live
    on (Monkey allocation).  Each entry's digest is read once, in physical
    order, into one buffer that every filter of the file is set from.
    Unsalted digests are cached on the entry (see ``Entry.digest``).
    Salted ones never are -- entries migrate between trees (shard splits)
    whose salts differ, and a stale digest would be a silent false
    negative -- so they come from the per-salt memo instead.  Tile
    filters are built only under ``kiwi_page_filters`` at ``h > 1``;
    ``file_filter=False`` skips the file filter (a KiWi rewrite keeps the
    file's).
    """
    bits = config.bloom_bits_for_level(level)
    with_tiles = bits > 0 and config.kiwi_page_filters and config.pages_per_tile > 1
    if not (file_filter or with_tiles):
        return None
    if bits <= 0:  # filters disabled: no digests, every tile unfiltered
        return BloomFilter(sum(t.entry_count for t in tiles), bits, salt)
    pages = [page for tile in tiles for page in tile.pages]
    if salt is not None:
        digests = b"".join([key_digest(e.key, salt) for p in pages for e in p.entries])
    else:
        try:
            # Fast path: every entry has been through a build before.
            digests = b"".join([e.digest for p in pages for e in p.entries])
        except AttributeError:
            digests = b"".join([_cached_digest(e) for p in pages for e in p.entries])
    h1, h2 = hash_pairs(digests)
    if with_tiles:
        tile_pages = [[len(page) for page in tile.pages] for tile in tiles]
        for tile, tile_filter in zip(tiles, build_tile_filters(h1, h2, tile_pages, bits)):
            tile.filter = tile_filter
    return BloomFilter.from_hash_pairs(h1, h2, bits, salt) if file_filter else None


def _cached_digest(entry: Entry) -> bytes:
    try:
        return entry.digest
    except AttributeError:
        digest = entry.digest = key_digest(entry.key)
        return digest


def _oldest_tombstone_time(tiles: list[DeleteTile]) -> int | None:
    """Oldest tombstone ``write_time`` across ``tiles``.

    Each page caches its own oldest tombstone (computed in the same pass
    that counts tombstones at page construction), so this is O(pages) with
    no per-entry work -- file builds and rebuilds never rescan entries.
    """
    oldest: int | None = None
    for tile in tiles:
        for page in tile.pages:
            page_oldest = page.oldest_tombstone_time
            if page_oldest is not None and (oldest is None or page_oldest < oldest):
                oldest = page_oldest
    return oldest


def build_files(
    entries: list[Entry],
    config: LSMConfig,
    next_file_id: "FileIdAllocator",
    created_at: int,
    level: int = 1,
    salt: bytes | None = None,
) -> list["SSTableFile"]:
    """Partition sorted entries into files of at most ``file_entry_limit``."""
    limit = config.file_entry_limit
    files = []
    for start in range(0, len(entries), limit):
        chunk = entries[start : start + limit]
        files.append(
            SSTableFile.build(
                next_file_id(), chunk, config, created_at, level=level, salt=salt
            )
        )
    return files


class FileIdAllocator:
    """Monotonic file-id source (persisted via the manifest).

    ``make_thread_safe`` arms an internal lock so concurrent flush and
    compaction workers never mint the same id; serial trees skip the lock
    entirely (``self._lock is None`` costs one attribute test).
    """

    __slots__ = ("_next", "_lock")

    def __init__(self, start: int = 1) -> None:
        self._next = start
        self._lock = None

    def make_thread_safe(self) -> None:
        if self._lock is None:
            import threading

            self._lock = threading.Lock()

    def __call__(self) -> int:
        lock = self._lock
        if lock is None:
            value = self._next
            self._next += 1
            return value
        with lock:
            value = self._next
            self._next += 1
            return value

    def peek(self) -> int:
        return self._next

    def advance_past(self, used_id: int) -> None:
        if used_id >= self._next:
            self._next = used_id + 1


class Run:
    """A sort-key-partitioned sequence of non-overlapping files.

    Files are immutable and the file list is fixed at construction (every
    structural change builds a new :class:`Run`), so the aggregate counts
    are computed once here and served as plain attributes -- the planner
    and FADE consult them on every ingest, and re-summing per operation
    was the dominant cost of the write path.
    """

    __slots__ = ("files", "file_fence", "entry_count", "tombstone_count", "page_count")

    def __init__(self, files: list[SSTableFile]) -> None:
        if not files:
            raise ValueError("a run must hold at least one file")
        ordered = sorted(files, key=lambda f: f.min_key)
        for left, right in zip(ordered, ordered[1:]):
            if right.min_key <= left.max_key:
                raise ValueError(
                    f"files {left.file_id} and {right.file_id} overlap; a run must "
                    "be key-partitioned"
                )
        self.files = ordered
        self.file_fence = FenceIndex.over(ordered, "min_key", "max_key")
        self.entry_count = sum(f.entry_count for f in ordered)
        self.tombstone_count = sum(f.tombstone_count for f in ordered)
        self.page_count = sum(f.page_count for f in ordered)

    @property
    def min_key(self) -> Any:
        return self.files[0].min_key

    @property
    def max_key(self) -> Any:
        return self.files[-1].max_key

    def __len__(self) -> int:
        return len(self.files)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: Any, reader: PageReader) -> Entry | None:
        """Point lookup: file fence -> Bloom -> file probe."""
        idx = self.file_fence.locate(key)
        if idx is None:
            return None
        file = self.files[idx]
        hashed = key_hash_pair(key, file.bloom.salt)
        if not file.bloom.might_contain_hashed(hashed[0], hashed[1]):
            return None
        return file.get(key, reader, hashed=hashed)

    def scan_blocks(
        self, lo: Any, hi: Any, reader: PageReader, reverse: bool = False
    ) -> Iterator[list[Entry]]:
        """In-range entries as one sorted list ("block") per overlapping tile.

        This is the fused scan's per-run source.  Files and tiles outside
        ``[lo, hi]`` are pruned by fence pointers without I/O; each
        surviving tile is prefetched in one batched request
        (:meth:`PageReader.read_tile`), then its cached sort-key list is
        bisected to slice exactly the in-range span.  Blocks arrive in
        global sort-key order (descending when ``reverse``); consumers
        must not mutate them -- a full-tile block may alias the tile's
        internal entry list.
        """
        # The fence spans are inlined (same arithmetic as
        # FenceIndex.overlapping) and single-page tiles skip the read_tile
        # wrapper: this runs once per surviving run per scan, and the
        # per-source setup cost is what bounds short-scan throughput.
        if lo > hi:  # empty interval: prefetch nothing
            return
        files = self.files
        ffence = self.file_fence
        first = bisect_left(ffence.maxes, lo)
        last = bisect_right(ffence.mins, hi)
        if first >= last:
            return
        cache = reader.cache
        disk_read = reader.disk.read_pages
        category = reader.category
        file_span = range(first, last)
        for idx in reversed(file_span) if reverse else file_span:
            file = files[idx]
            tfence = file.tile_fence
            tfirst = bisect_left(tfence.maxes, lo)
            tlast = bisect_right(tfence.mins, hi)
            if tfirst >= tlast:
                continue
            tiles = file.tiles
            file_id = file.file_id
            offsets = file._tile_page_offsets
            tile_span = range(tfirst, tlast)
            for tile_idx in reversed(tile_span) if reverse else tile_span:
                tile = tiles[tile_idx]
                pages = tile.pages
                if len(pages) == 1:  # classical layout: tile == page
                    flat = offsets[tile_idx]
                    if cache.get(file_id, flat) is None:
                        disk_read(1, category)
                        cache.put(file_id, flat, pages[0])
                else:
                    reader.read_tile(file, tile_idx)
                keys = tile.sorted_keys()
                start = bisect_left(keys, lo)
                stop = bisect_right(keys, hi)
                if start >= stop:
                    continue
                entries = tile.entries_sorted()
                if start == 0 and stop == len(keys):
                    block = entries[::-1] if reverse else entries
                else:
                    block = entries[start:stop]
                    if reverse:
                        block.reverse()
                yield block

    def overlapping_files(self, lo: Any, hi: Any) -> list[SSTableFile]:
        return [self.files[i] for i in self.file_fence.overlapping(lo, hi)]

    def iter_all_entries(self) -> Iterator[Entry]:
        for file in self.files:
            yield from file.iter_all_entries()
