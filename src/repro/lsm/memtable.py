"""The in-memory write buffer (level 0 of the tree).

The memtable absorbs all ingestion: puts, point deletes (as tombstones),
and the re-insertion traffic of compactions never touch it.  It keeps *one*
entry per key -- a newer write replaces the older version in place, which is
the standard memtable semantics (the superseded version needs no tombstone
because it was never persisted).

Delete-awareness starts here: the memtable tracks how many of its live
entries are tombstones and the ``write_time`` of its oldest tombstone, which
is the seed of the *file age* metadata FADE uses once the buffer is flushed.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.lsm.entry import Entry, EntryKind
from repro.lsm.skiplist import SkipList

_PUT = EntryKind.PUT


class Memtable:
    """A bounded, ordered buffer of the newest entry per key."""

    def __init__(self, capacity: int, seed: int = 0x5EED) -> None:
        if capacity < 1:
            raise ValueError(f"memtable capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._map = SkipList(seed=seed)
        # Every engine read probes the memtable before touching any run,
        # so the point probe is bound straight to the skip list's hash
        # sidecar: one C-level dict call, no wrapper frames.  Safe because
        # the sidecar dict is cleared in place, never replaced.
        self.get = self._map._index.get  # type: ignore[method-assign]
        self._tombstones = 0
        #: ``write_time`` of the first tombstone buffered since the last
        #: flush.  Conservative (not decreased when that tombstone is later
        #: replaced by a put), which is safe: FADE may flush slightly early,
        #: never late.  O(1) to maintain, checked on every ingest.
        self.first_tombstone_time: int | None = None
        #: ``(lowest seqno, lowest delete key)`` among the puts buffered
        #: since the last drain (None: no put yet).  Conservative -- a
        #: replaced or removed put never raises them -- so the fence
        #: retirement audit may skip walking this buffer for a fence older
        #: than every buffered put, or ending below every put's delete key.
        #: One tuple, rebound whole, so a concurrent audit reads a
        #: consistent pair with one attribute load.
        self.low_put: tuple[int, Any] | None = None

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def add(self, entry: Entry) -> Entry | None:
        """Insert ``entry``, replacing any older version of the same key.

        Returns the displaced entry (which may be a tombstone -- the
        caller reports superseded deletes to the lifecycle listener), or
        None when the key was not buffered.  One skip-list traversal
        serves the lookup and the insert; this path runs on every write.
        """
        old = self._map.insert(entry.key, entry)
        if old is not None and old.is_tombstone:
            self._tombstones -= 1
        if entry.kind is _PUT:
            low = self.low_put
            if low is None:
                self.low_put = (entry.seqno, entry.delete_key)
            elif entry.seqno < low[0] or entry.delete_key < low[1]:
                self.low_put = (
                    min(entry.seqno, low[0]),
                    min(entry.delete_key, low[1]),
                )
        elif entry.is_tombstone:
            self._tombstones += 1
            if self.first_tombstone_time is None:
                self.first_tombstone_time = entry.write_time
        return old

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, key: Any) -> Entry | None:
        """The buffered entry for ``key`` (may be a tombstone), or None.

        Never runs: ``__init__`` shadows it per instance with the skip
        list's sidecar ``dict.get``.  It stays as the class attribute
        that names the probe -- the benchmark tracer looks ``Memtable.get``
        up on the class, then counts calls through the instance binding
        it installs after ``__init__``.
        """
        return self._map.get(key)

    def range(self, lo: Any, hi: Any) -> Iterator[Entry]:
        """Entries with ``lo <= key <= hi`` in ascending key order."""
        for _, entry in self._map.range_items(lo, hi):
            yield entry

    def __iter__(self) -> Iterator[Entry]:
        for _, entry in self._map.items():
            yield entry

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, key: Any) -> bool:
        return key in self._map

    # ------------------------------------------------------------------
    # state & flush support
    # ------------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        return len(self._map) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return len(self._map) == 0

    @property
    def tombstone_count(self) -> int:
        return self._tombstones

    def oldest_tombstone_time(self) -> int | None:
        """``write_time`` of the oldest buffered tombstone, or None.

        O(n); called once per flush, never on the per-operation path.
        """
        oldest: int | None = None
        for _, entry in self._map.items():
            if entry.is_tombstone and (oldest is None or entry.write_time < oldest):
                oldest = entry.write_time
        return oldest

    def drain(self) -> list[Entry]:
        """Return all entries in key order and reset the buffer."""
        entries = [entry for _, entry in self._map.items()]
        self._map.clear()
        self._tombstones = 0
        self.first_tombstone_time = None
        self.low_put = None
        return entries
