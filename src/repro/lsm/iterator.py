"""Merge iterators: the shared machinery of scans and compactions.

Both a range scan and a compaction do the same thing -- combine several
sort-key-ordered streams and resolve multiple versions of a key to the
newest one.  They differ only in what happens to the losers and to winning
tombstones:

* a **scan** silently skips shadowed versions and suppresses winning
  tombstones (a deleted key is invisible);
* a **compaction** reports every shadowed entry (so the persistence tracker
  learns when a tombstone was superseded) and may drop winning tombstones
  when writing the bottommost level (the *purge* that persists a delete).

``merge_resolve`` implements the shared core; thin wrappers specialize it.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator

from repro.lsm.entry import Entry, EntryKind

#: Callback fired with (loser, winner) whenever a version is shadowed.
ShadowCallback = Callable[[Entry, Entry], None]

_TOMBSTONE = EntryKind.TOMBSTONE
_MISSING = object()


def merge_resolve(
    sources: list[Iterable[Entry]],
    on_shadowed: ShadowCallback | None = None,
) -> Iterator[Entry]:
    """K-way merge of key-ordered streams, newest version per key wins.

    Each source must be ascending in sort key with unique keys *within*
    itself (true for memtable drains, files, and runs).  Across sources,
    versions of the same key are resolved by sequence number: the largest
    ``seqno`` wins and every other version is reported to ``on_shadowed``.
    """
    if not sources:
        return
    if len(sources) == 1:
        yield from sources[0]
        return
    if len(sources) == 2:
        # Nearly every compaction merges exactly two streams (the moved
        # file and its overlap, or a flush and the level-1 run), so the
        # general heap -- with its per-entry tuple key -- is bypassed for
        # a direct two-pointer merge.
        yield from _merge_resolve_2(sources[0], sources[1], on_shadowed)
        return

    merged: Iterable[Entry]
    if all(type(s) is list for s in sources):
        # Compaction hands over materialized lists: concatenating and
        # timsorting beats a Python-level k-way heap merge (the comparison
        # loop runs in C and exploits the pre-sorted runs).  ``(key,
        # -seqno)`` pairs are unique, so the result is exactly the heap
        # merge's order.
        flat: list[Entry] = []
        for s in sources:
            flat.extend(s)
        flat.sort(key=lambda e: (e.key, -e.seqno))
        merged = flat
    else:
        merged = heapq.merge(*sources, key=lambda e: (e.key, -e.seqno))
    current: Entry | None = None
    for entry in merged:
        if current is None or entry.key != current.key:
            if current is not None:
                yield current
            current = entry
        else:
            # Same key, smaller seqno: shadowed by `current`.
            if on_shadowed is not None:
                on_shadowed(entry, current)
    if current is not None:
        yield current


def merge_resolve_list(
    sources: list[Iterable[Entry]],
    on_shadowed: ShadowCallback | None = None,
) -> list[Entry]:
    """:func:`merge_resolve`, materialized.

    Compactions consume the whole resolved stream anyway, so giving them a
    list skips the generator protocol's per-entry ``next`` dispatch.  The
    winners and the ``on_shadowed`` callback order are identical to
    :func:`merge_resolve`.
    """
    if not sources:
        return []
    if len(sources) == 1:
        s = sources[0]
        return s if type(s) is list else list(s)
    if len(sources) == 2:
        return list(_merge_resolve_2(sources[0], sources[1], on_shadowed))
    flat: list[Entry] = []
    for s in sources:
        flat.extend(s)
    flat.sort(key=lambda e: (e.key, -e.seqno))
    out: list[Entry] = []
    append = out.append
    current: Entry | None = None
    for entry in flat:
        if current is None or entry.key != current.key:
            if current is not None:
                append(current)
            current = entry
        elif on_shadowed is not None:
            on_shadowed(entry, current)
    if current is not None:
        append(current)
    return out


def _merge_resolve_2(
    source_a: Iterable[Entry],
    source_b: Iterable[Entry],
    on_shadowed: ShadowCallback | None,
) -> Iterator[Entry]:
    """Two-source :func:`merge_resolve`, without the heap.

    Keys are unique within each source, so a key can collide at most once
    across the two streams; after emitting the smaller key it can never
    reappear, which makes the straight two-pointer walk safe.
    """
    ia, ib = iter(source_a), iter(source_b)
    ea = next(ia, None)
    eb = next(ib, None)
    while ea is not None and eb is not None:
        ka = ea.key
        kb = eb.key
        if ka < kb:
            yield ea
            ea = next(ia, None)
        elif kb < ka:
            yield eb
            eb = next(ib, None)
        else:
            # Two versions of one key: the larger seqno wins.
            if ea.seqno > eb.seqno:
                winner, loser = ea, eb
            else:
                winner, loser = eb, ea
            if on_shadowed is not None:
                on_shadowed(loser, winner)
            yield winner
            ea = next(ia, None)
            eb = next(ib, None)
    if ea is not None:
        yield ea
        yield from ia
    elif eb is not None:
        yield eb
        yield from ib


def visible_entries(resolved: Iterable[Entry]) -> Iterator[Entry]:
    """Drop winning tombstones: what a user-level scan should see."""
    for entry in resolved:
        if entry.is_put:
            yield entry


def scan_fused(
    block_sources: list[Iterable[list[Entry]]],
    limit: int | None = None,
    reverse: bool = False,
    drop: Callable[[Entry], bool] | None = None,
) -> Iterator[Entry]:
    """The fused range scan: a k-way merge over *blocks* of entries.

    Each source yields sorted **lists** of in-range entries (one per tile
    or memtable slice; see :meth:`Run.scan_blocks`), ordered and
    unique-keyed within the source, ascending -- or descending when
    ``reverse``.  Fusing the merge over list cursors instead of per-entry
    generators removes a Python frame resumption per entry, and resolving
    versions inline (newest ``seqno`` wins, winning tombstones and
    shadowed versions skipped without materializing) collapses the old
    ``merge_resolve`` -> ``visible_entries`` -> limit pipeline into one
    loop with a hard early-exit on ``limit``.

    ``drop`` is the range-tombstone fence predicate: an entry for which it
    returns True is skipped *without* claiming the key in the dedup state,
    so an older surviving version of the same key still surfaces -- the
    same exposure an eager delete produces by physically removing the
    newer version.

    Sources may yield empty blocks; they are skipped.
    """
    produced = 0
    if len(block_sources) == 1:
        # One source means unique keys and no cross-source shadowing:
        # the merge degenerates to a tombstone (and fence) filter.
        for block in block_sources[0]:
            for entry in block:
                if entry.kind is not _TOMBSTONE and not (
                    drop is not None and drop(entry)
                ):
                    yield entry
                    produced += 1
                    if produced == limit:
                        return
        return
    if reverse:
        yield from _scan_fused_desc(block_sources, limit, drop)
        return

    # Ascending: a heap of list cursors keyed by (key, -seqno) so the
    # newest version of each key surfaces first; stale versions of the
    # same key are skipped by comparing against the last resolved key.
    heap = []
    for si, source in enumerate(block_sources):
        it = iter(source)
        block = next(it, None)
        while block is not None and not block:
            block = next(it, None)
        if block is None:
            continue
        entry = block[0]
        heap.append((entry.key, -entry.seqno, si, 0, block, it))
    heapq.heapify(heap)
    heapreplace = heapq.heapreplace
    heappop = heapq.heappop
    last_key = _MISSING
    while heap:
        key, _negseq, si, idx, block, it = heap[0]
        if key != last_key:
            entry = block[idx]
            if drop is not None and drop(entry):
                pass  # fence-shadowed: older versions of `key` stay live
            else:
                last_key = key
                if entry.kind is not _TOMBSTONE:
                    yield entry
                    produced += 1
                    if produced == limit:
                        return
        idx += 1
        if idx < len(block):
            entry = block[idx]
            heapreplace(heap, (entry.key, -entry.seqno, si, idx, block, it))
        else:
            block = next(it, None)
            while block is not None and not block:
                block = next(it, None)
            if block is None:
                heappop(heap)
            else:
                entry = block[0]
                heapreplace(heap, (entry.key, -entry.seqno, si, 0, block, it))


def _scan_fused_desc(
    block_sources: list[Iterable[list[Entry]]],
    limit: int | None,
    drop: Callable[[Entry], bool] | None = None,
) -> Iterator[Entry]:
    """Descending :func:`scan_fused` core.

    ``heapq`` is min-only, so instead of wrapping every key in a
    reverse-comparing proxy the descending merge selects the max-key
    cursor linearly each step -- O(sources) per entry, and the source
    count (active runs + memtable) is small by construction.
    """
    cursors = []  # mutable [block, idx, iterator] triples
    for source in block_sources:
        it = iter(source)
        block = next(it, None)
        while block is not None and not block:
            block = next(it, None)
        if block is not None:
            cursors.append([block, 0, it])
    produced = 0
    last_key = _MISSING
    while cursors:
        best = None
        best_key = best_seq = None
        for cur in cursors:
            entry = cur[0][cur[1]]
            key = entry.key
            if (
                best is None
                or key > best_key
                or (key == best_key and entry.seqno > best_seq)
            ):
                best, best_key, best_seq = cur, key, entry.seqno
        entry = best[0][best[1]]
        if best_key != last_key:
            if drop is not None and drop(entry):
                pass  # fence-shadowed: older versions of the key stay live
            else:
                last_key = best_key
                if entry.kind is not _TOMBSTONE:
                    yield entry
                    produced += 1
                    if produced == limit:
                        return
        best[1] += 1
        if best[1] >= len(best[0]):
            block = next(best[2], None)
            while block is not None and not block:
                block = next(best[2], None)
            if block is None:
                cursors.remove(best)
            else:
                best[0] = block
                best[1] = 0


class CountingIterator:
    """Wraps an entry iterator and counts what passes through.

    Used by tests and the demo inspector to observe how many versions a
    scan had to consider versus how many it returned.
    """

    def __init__(self, inner: Iterable[Entry]) -> None:
        self._inner = iter(inner)
        self.count = 0

    def __iter__(self) -> "CountingIterator":
        return self

    def __next__(self) -> Entry:
        entry = next(self._inner)
        self.count += 1
        return entry
