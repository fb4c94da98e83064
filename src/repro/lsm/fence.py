"""Range-tombstone fences: lazy secondary range deletes.

A **fence** records a secondary range delete as data instead of applying
it eagerly: ``(lo, hi, seqno, write_time)`` means "every value entry whose
``delete_key`` falls in ``[lo, hi]`` and whose ``seqno`` predates mine is
deleted".  Recording one is O(1) -- a WAL append plus a manifest publish
-- regardless of how much data the range covers; the physical work is
deferred to flushes and compactions, which drop shadowed entries as they
rewrite data anyway.

Semantics mirror the eager KiWi delete exactly (eager mode remains the
verification oracle):

* only ``PUT`` entries are shadowed -- point-delete tombstones survive a
  secondary delete in both modes, because dropping one would resurrect
  older versions of its key;
* a shadowed version is *skipped*, never treated as a tombstone: eager
  deletion physically removes the in-window version, which exposes any
  older out-of-window version of the same key beneath it, so the lazy
  read path must keep descending past a shadowed entry;
* entries ingested after the fence (``seqno >= fence.seqno``) are never
  shadowed, exactly as eager deletion cannot touch data that did not
  exist yet.

A fence is *resolved* once no live entry anywhere in the tree can still
be shadowed by it; compaction retires resolved fences (see
``LSMTree._retire_resolved_fences``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.lsm.entry import Entry, EntryKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.run import SSTableFile

_PUT = EntryKind.PUT


class RangeFence:
    """One persisted range-tombstone fence (immutable)."""

    __slots__ = ("lo", "hi", "seqno", "write_time")

    def __init__(self, lo: int, hi: int, seqno: int, write_time: int) -> None:
        self.lo = lo
        self.hi = hi
        self.seqno = seqno
        self.write_time = write_time

    # ------------------------------------------------------------------
    # codecs: the fence rides the entry layout through the WAL and a
    # plain row through the JSON manifest.
    # ------------------------------------------------------------------
    def to_entry(self) -> Entry:
        return Entry.range_fence(self.lo, self.hi, self.seqno, self.write_time)

    @classmethod
    def from_entry(cls, entry: Entry) -> "RangeFence":
        if not entry.is_range_fence:
            raise ValueError(f"not a fence record: {entry!r}")
        return cls(entry.delete_key, entry.value, entry.seqno, entry.write_time)

    def to_row(self) -> list[int]:
        return [self.lo, self.hi, self.seqno, self.write_time]

    @classmethod
    def from_row(cls, row: Sequence[int]) -> "RangeFence":
        lo, hi, seqno, write_time = row
        return cls(lo, hi, seqno, write_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RangeFence(dkey=[{self.lo},{self.hi}] seq={self.seqno} "
            f"t={self.write_time})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeFence):
            return NotImplemented
        return (self.lo, self.hi, self.seqno, self.write_time) == (
            other.lo,
            other.hi,
            other.seqno,
            other.write_time,
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.seqno, self.write_time))


def shadow_check(
    fences: Sequence[RangeFence],
) -> Callable[[Entry], bool] | None:
    """A fast per-entry shadow predicate, or None when there are no fences.

    Returning None (rather than an always-false closure) lets hot loops
    skip the call entirely with one truth test -- the read and merge paths
    pay nothing while no fence is live.
    """
    if not fences:
        return None
    if len(fences) == 1:
        fence = fences[0]
        lo, hi, seq = fence.lo, fence.hi, fence.seqno

        def check_one(entry: Entry) -> bool:
            return (
                entry.kind is _PUT
                and entry.seqno < seq
                and lo <= entry.delete_key <= hi
            )

        return check_one
    spans = [(f.lo, f.hi, f.seqno) for f in fences]

    def check_many(entry: Entry) -> bool:
        if entry.kind is not _PUT:
            return False
        dk = entry.delete_key
        sq = entry.seqno
        for lo, hi, seq in spans:
            if sq < seq and lo <= dk <= hi:
                return True
        return False

    return check_many


def file_fully_shadowed(file: "SSTableFile", fences: Sequence[RangeFence]) -> bool:
    """True when *every* entry of ``file`` is shadowed by one fence.

    This is the read path's I/O shortcut: a file whose whole delete-key
    span is covered by a fence, which predates the fence entirely, and
    which holds no tombstones, can contribute nothing visible -- the
    lookup skips its Bloom probe and page descent outright.  All three
    conditions are O(1) metadata tests.
    """
    if file.tombstone_count:
        return False
    lo = file.min_delete_key
    hi = file.max_delete_key
    for fence in fences:
        if fence.lo <= lo and hi <= fence.hi and file.max_seqno < fence.seqno:
            return True
    return False


def file_shadowable(file: "SSTableFile", fence: RangeFence) -> bool:
    """True when ``file`` still holds at least one entry ``fence`` shadows.

    Two O(1) metadata rejections (delete-key span disjoint from the
    window, or everything in the file newer than the fence) guard an
    exact per-entry walk; files are immutable, so a negative walk is
    memoized on the file and never repeated (``fence_known_clear``).
    """
    if file.max_delete_key < fence.lo or file.min_delete_key > fence.hi:
        return False
    if file.min_seqno >= fence.seqno:
        return False
    cleared = file.fence_known_clear
    if fence.seqno in cleared:
        return False
    lo, hi, seq = fence.lo, fence.hi, fence.seqno
    for entry in file.iter_all_entries():
        if entry.kind is _PUT and entry.seqno < seq and lo <= entry.delete_key <= hi:
            return True
    cleared.add(fence.seqno)
    return False
