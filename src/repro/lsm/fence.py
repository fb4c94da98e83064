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

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from itertools import count
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.lsm.entry import Entry, EntryKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lsm.run import SSTableFile

_PUT = EntryKind.PUT
_LO = attrgetter("lo")
#: Distinct per index object: keys the per-file ``fully_shadows`` memo
#: without keeping old indexes alive through the files that cached them.
_TOKENS = count(1)


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


class RangeTombstoneIndex:
    """The live fences of one tree, indexed for shadow checks (immutable).

    It iterates its fences oldest-first (install order), the order
    manifests, WAL rewrites and FADE rely on.
    Every shadow question goes through it:

    * :attr:`check` -- a per-entry predicate built once per fence-set
      change, or None when no fence is live (hot loops then skip the call
      with one truth test).  One fence keeps the three-compare closure;
      more fences close over the **painted** delete-key axis below, so a
      check is two bisects and one compare whatever the fence count.
    * :meth:`fully_shadows` -- the read path's whole-file skip, memoized
      on the (immutable) file per index.

    The painted axis is exact for any totally ordered delete keys.
    ``_points`` holds every distinct fence endpoint in ascending order;
    ``_values`` interleaves the highest covering fence seqno (0: none) of
    each open gap and each point: ``_values[2k]`` covers the gap just
    below ``_points[k]`` and ``_values[2k + 1]`` the point itself.  For a
    delete key ``dk``, ``bisect_left + bisect_right`` is ``2k`` inside a
    gap and ``2k + 1`` on a point.  An entry is shadowed iff it is a PUT
    and that highest covering seqno exceeds its own -- the same answer as
    asking every fence, since any covering fence newer than the entry
    makes the newest covering fence newer too.

    Readers snapshot the index with one attribute load; the tree rebinds
    a new index on every change and never mutates one in place.
    """

    __slots__ = ("_fences", "_points", "_values", "_top", "check", "token")

    def __init__(self, fences: Iterable[RangeFence] = ()) -> None:
        """Build from scratch: one O(F log F) sweep over the endpoints."""
        fences = tuple(fences)
        points = sorted({f.lo for f in fences} | {f.hi for f in fences})
        values = [0]
        by_lo = sorted(fences, key=_LO)
        active: list[tuple[int, object]] = []  # (-seqno, hi): a max-heap
        nxt = 0
        for point in points:
            while nxt < len(by_lo) and by_lo[nxt].lo <= point:
                fence = by_lo[nxt]
                heappush(active, (-fence.seqno, fence.hi))
                nxt += 1
            # Lazy deletion: only the top must still cover; a stale entry
            # below it is popped once it surfaces.
            while active and active[0][1] < point:
                heappop(active)
            values.append(-active[0][0] if active else 0)  # the point
            while active and active[0][1] <= point:
                heappop(active)
            values.append(-active[0][0] if active else 0)  # the gap above
        self._assemble(fences, points, values, max(values))

    def _assemble(self, fences: tuple, points: list, values: list, top: int) -> None:
        self._fences = fences
        self._points = points
        self._values = values
        self._top = top  # the newest live fence's seqno (0: none)
        self.token = next(_TOKENS)
        if not fences:
            self.check = None
        elif len(fences) == 1:
            fence = fences[0]
            lo, hi, seq = fence.lo, fence.hi, fence.seqno

            def check_one(entry: Entry) -> bool:
                return (
                    entry.kind is _PUT
                    and entry.seqno < seq
                    and lo <= entry.delete_key <= hi
                )

            self.check = check_one
        else:

            def check_painted(entry: Entry) -> bool:
                if entry.kind is not _PUT:
                    return False
                dk = entry.delete_key
                return entry.seqno < values[
                    bisect_left(points, dk) + bisect_right(points, dk)
                ]

            self.check = check_painted

    # ------------------------------------------------------------------
    # fence-set changes: each returns a new index
    # ------------------------------------------------------------------
    def install(self, fence: RangeFence) -> "RangeTombstoneIndex":
        """This index plus ``fence`` (appended: iteration stays install order).

        A new fence is newer than every live one, so it wins wherever it
        covers: painting ``[lo, hi]`` with its seqno is one bisect pair
        and one splice -- every endpoint strictly inside the window goes,
        ``lo`` and ``hi`` come in, and the gaps just outside keep their
        values.  Recovery may restore an older fence from the WAL; that
        rare case rebuilds instead.
        """
        fences = self._fences + (fence,)
        if fence.seqno <= self._top:
            return RangeTombstoneIndex(fences)
        lo, hi, seq = fence.lo, fence.hi, fence.seqno
        points = self._points.copy()
        values = self._values.copy()
        i = bisect_left(points, lo)
        j = bisect_right(points, hi)
        below, above = values[2 * i], values[2 * j]
        if lo == hi:
            points[i:j] = [lo]
            values[2 * i : 2 * j + 1] = [below, seq, above]
        else:
            points[i:j] = [lo, hi]
            values[2 * i : 2 * j + 1] = [below, seq, seq, seq, above]
        index = RangeTombstoneIndex.__new__(RangeTombstoneIndex)
        index._assemble(fences, points, values, seq)
        return index

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def fully_shadows(self, file: "SSTableFile") -> bool:
        """True when one fence shadows *every* entry of ``file``.

        This is the read path's I/O shortcut: a file whose whole
        delete-key span is covered by a single fence, which predates that
        fence entirely, and which holds no tombstones, can contribute
        nothing visible -- the lookup skips its Bloom probe and page
        descent outright.  Files are immutable, so the answer is memoized
        on the file under this index's ``token``: a lookup pays the fence
        walk once per (file, fence set), then one compare.
        """
        memo = file.shadow_memo
        if memo is not None and memo[0] == self.token:
            return memo[1]
        covered = False
        if not file.tombstone_count:
            lo = file.min_delete_key
            hi = file.max_delete_key
            for fence in self._fences:
                if fence.lo <= lo and hi <= fence.hi and file.max_seqno < fence.seqno:
                    covered = True
                    break
        file.shadow_memo = (self.token, covered)
        return covered

    def __iter__(self) -> Iterator[RangeFence]:
        return iter(self._fences)

    def __len__(self) -> int:
        return len(self._fences)

    def __bool__(self) -> bool:
        return bool(self._fences)


#: The empty index every tree starts from.
NO_FENCES = RangeTombstoneIndex()


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
