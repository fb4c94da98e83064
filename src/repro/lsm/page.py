"""Pages and delete tiles: the physical layout of a file.

This module implements the paper's *key-weaving storage layout* (KiWi) and
its classical degenerate case in one structure:

* a **page** is the unit of device I/O and holds up to ``entries_per_page``
  entries, always sorted by **sort key** internally;
* a **delete tile** is a group of ``h = pages_per_tile`` consecutive pages.
  Tiles partition the file's sort-key space (tile *i* holds strictly
  smaller keys than tile *i+1*), but *within* a tile the pages are
  partitioned by the **delete key** -- each page covers a disjoint
  delete-key range.

That weave is the whole trick: a range delete on the delete key can drop
every page whose delete-key range falls inside the predicate *without
reading it*, while sort-key point lookups still land on one tile via fence
pointers (and then probe up to ``h`` candidate pages -- the read penalty the
F7 experiment quantifies, and the tile's bit-sliced page filter prunes).
With ``h == 1`` the layout collapses to the classical sort-key-only file
used by the baselines.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Any, Iterator

from repro.lsm.entry import Entry, EntryKind

_TOMBSTONE = EntryKind.TOMBSTONE
_BY_KEY = attrgetter("key")
_BY_DELETE_KEY = attrgetter("delete_key")


class Page:
    """One disk page: entries sorted by sort key, with both key ranges."""

    __slots__ = (
        "entries",
        "min_key",
        "max_key",
        "min_delete_key",
        "max_delete_key",
        "tombstone_count",
        "oldest_tombstone_time",
        "_keys",
    )

    def __init__(self, entries: list[Entry]) -> None:
        if not entries:
            raise ValueError("a page must hold at least one entry")
        self.entries = entries
        self.min_key = entries[0].key
        self.max_key = entries[-1].key
        dkeys = [e.delete_key for e in entries]
        self.min_delete_key = min(dkeys)
        self.max_delete_key = max(dkeys)
        # Tombstone accounting in a single filtered pass: entries are
        # immutable once paged, so both the count and the oldest tombstone
        # write_time can be cached at construction and never revisited.
        # The raw ``kind`` comparison (vs the ``is_tombstone`` property)
        # matters: page construction runs once per entry per compaction.
        tombstones = 0
        oldest: int | None = None
        for e in entries:
            if e.kind is _TOMBSTONE:
                tombstones += 1
                if oldest is None or e.write_time < oldest:
                    oldest = e.write_time
        self.tombstone_count = tombstones
        #: ``write_time`` of this page's oldest tombstone (None when the
        #: page holds no tombstones) -- the seed of FADE's file-age field.
        self.oldest_tombstone_time = oldest
        #: Lazily built sort-key list (see :attr:`keys`).
        self._keys = None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def keys(self) -> list[Any]:
        """The page's sort keys as a plain list, built once on first use.

        Entries are immutable once paged, so the list never goes stale.
        Binary searches over it run entirely in C (no per-comparison
        ``key=`` lambda), which is what makes cached point lookups and
        scan slicing cheap; building it lazily keeps compaction-only pages
        from paying for a list they never search.
        """
        keys = self._keys
        if keys is None:
            keys = self._keys = [e.key for e in self.entries]
        return keys

    def get(self, key: Any) -> Entry | None:
        """Binary-search this page for ``key`` (keys are unique in a file)."""
        keys = self._keys
        if keys is None:
            keys = self.keys
        idx = bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            return self.entries[idx]
        return None

    def covers_key(self, key: Any) -> bool:
        return self.min_key <= key <= self.max_key

    def covered_by_delete_range(self, lo: int, hi: int) -> bool:
        """True when *every* entry's delete key falls inside [lo, hi]."""
        return lo <= self.min_delete_key and self.max_delete_key <= hi

    def overlaps_delete_range(self, lo: int, hi: int) -> bool:
        return not (self.max_delete_key < lo or self.min_delete_key > hi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Page({len(self.entries)} entries, key=[{self.min_key!r},{self.max_key!r}], "
            f"dkey=[{self.min_delete_key},{self.max_delete_key}])"
        )


class DeleteTile:
    """A group of pages: disjoint in delete key, jointly one sort-key range.

    ``pages`` are ordered by ``min_delete_key``.  The tile's sort-key bounds
    span all its pages; they are what the file-level fence pointers index.
    """

    __slots__ = (
        "pages",
        "min_key",
        "max_key",
        "min_delete_key",
        "max_delete_key",
        "filter",
        "_sorted",
        "_sorted_keys",
    )

    def __init__(self, pages: list[Page]) -> None:
        if not pages:
            raise ValueError("a delete tile must hold at least one page")
        self.pages = pages
        self.min_key = min(p.min_key for p in pages)
        self.max_key = max(p.max_key for p in pages)
        self.min_delete_key = min(p.min_delete_key for p in pages)
        self.max_delete_key = max(p.max_delete_key for p in pages)
        #: The tile's bit-sliced page filter
        #: (:class:`repro.filters.bloom.TileFilter`), attached by the file
        #: builder when ``kiwi_page_filters`` is on; None means every page
        #: whose key range covers a key is a candidate for it.
        self.filter = None
        self._sorted = None
        self._sorted_keys = None

    def __len__(self) -> int:
        return len(self.pages)

    @property
    def entry_count(self) -> int:
        return sum(len(p) for p in self.pages)

    @property
    def tombstone_count(self) -> int:
        return sum(p.tombstone_count for p in self.pages)

    def entries_sorted(self) -> list[Entry]:
        """All entries of the tile in ascending sort-key order, as a list.

        Used by compaction and range scans after the pages have been paid
        for; merging is pure CPU.  Keys are unique within a file, so a
        concatenate-and-timsort is equivalent to a k-way merge of the
        (individually sorted) pages -- and much faster, since timsort both
        runs in C and exploits the pre-sorted runs.  With a single page the
        page's own entry list is returned; callers must not mutate it.

        The merge result is cached: tiles are immutable once built, and a
        scan-heavy workload re-slices the same hot tiles over and over.
        """
        merged = self._sorted
        if merged is not None:
            return merged
        pages = self.pages
        if len(pages) == 1:
            merged = pages[0].entries
        else:
            merged = []
            for page in pages:
                merged.extend(page.entries)
            merged.sort(key=_BY_KEY)
        self._sorted = merged
        return merged

    def sorted_keys(self) -> list[Any]:
        """Sort keys of :meth:`entries_sorted`, cached (see :attr:`Page.keys`).

        Range scans bisect this list to slice a tile's in-range span
        without touching entry attributes per comparison.
        """
        keys = self._sorted_keys
        if keys is None:
            pages = self.pages
            if len(pages) == 1:
                keys = pages[0].keys
            else:
                keys = [e.key for e in self.entries_sorted()]
            self._sorted_keys = keys
        return keys

    def iter_entries_sorted(self) -> Iterator[Entry]:
        """Iterator form of :meth:`entries_sorted` (kept for read paths)."""
        return iter(self.entries_sorted())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeleteTile({len(self.pages)} pages, key=[{self.min_key!r},{self.max_key!r}], "
            f"dkey=[{self.min_delete_key},{self.max_delete_key}])"
        )


def weave_tile(chunk: list[Entry], entries_per_page: int, pages_per_tile: int) -> DeleteTile:
    """Build one delete tile from a sort-key-ordered chunk of entries.

    The chunk is re-sorted by (delete key, sort key), split into pages of
    ``entries_per_page``, and each page is re-sorted by sort key -- the
    key-weaving construction.  With ``pages_per_tile == 1`` the weave is the
    identity and is skipped.
    """
    if not chunk:
        raise ValueError("cannot weave an empty tile")
    if pages_per_tile == 1 or len(chunk) <= entries_per_page:
        pages = [
            Page(chunk[i : i + entries_per_page]) for i in range(0, len(chunk), entries_per_page)
        ]
        return DeleteTile(pages)
    # ``chunk`` arrives sort-key-ordered, so a *stable* sort on the delete
    # key alone equals sorting on (delete_key, sort_key) -- one attrgetter
    # key instead of a tuple allocation per entry.
    by_delete_key = sorted(chunk, key=_BY_DELETE_KEY)
    pages = []
    for start in range(0, len(by_delete_key), entries_per_page):
        page_entries = sorted(by_delete_key[start : start + entries_per_page], key=_BY_KEY)
        pages.append(Page(page_entries))
    return DeleteTile(pages)
