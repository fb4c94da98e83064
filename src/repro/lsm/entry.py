"""The key-value entry model.

Everything that flows through the tree -- memtable nodes, page contents,
merge-iterator items -- is an :class:`Entry`.  An entry is either a ``PUT``
(key, value) or a ``TOMBSTONE`` (a logical point delete that invalidates all
older versions of its key).  Entries carry:

``seqno``
    A globally monotone sequence number assigned at ingestion.  Between two
    entries for the same key, the larger ``seqno`` wins; this is the only
    versioning mechanism in the engine.

``write_time``
    The logical-clock tick at which the entry was ingested.  For tombstones
    this is the timestamp from which delete persistence latency is measured
    (the paper's central metric); FADE's per-level TTLs compare file *age*
    -- derived from the oldest tombstone ``write_time`` in the file --
    against the threshold.

``delete_key``
    The *secondary* delete key, an orthogonal attribute (the paper's
    motivating example is a creation timestamp) on which range deletes can
    be issued without touching the sort key.  KiWi weaves pages by this
    attribute so such deletes can drop whole pages.  Defaults to
    ``write_time`` when not supplied, matching the timestamp use case.
"""

from __future__ import annotations

import enum
from typing import Any


class EntryKind(enum.IntEnum):
    """Discriminator between values, logical deletes, and range fences."""

    PUT = 0
    TOMBSTONE = 1
    #: A *range-tombstone fence*: a secondary range delete recorded as data
    #: rather than applied eagerly.  Shadows every older PUT whose
    #: ``delete_key`` falls in ``[lo, hi]``; resolved (and eventually
    #: dropped) during compaction.  Encoded through the ordinary entry
    #: codec with ``key=None``, ``delete_key=lo``, ``value=hi``.
    RANGE_FENCE = 2


class Entry:
    """A single immutable key-value record (or tombstone).

    Instances are created in the hottest paths of the engine, so this is a
    ``__slots__`` class with positional construction rather than a
    dataclass.  Treat instances as immutable; the engine never mutates an
    entry after creation.
    """

    #: ``digest`` caches the entry's unsalted 16-byte Bloom digest (a
    #: pure function of ``key``; see :func:`repro.filters.bloom.key_digest`)
    #: the first time a file build computes it.  Write amplification
    #: re-files every entry ~W times, and the cache turns all but the
    #: first build's digest into an attribute read.  Left unset until
    #: then (reading it raises ``AttributeError``).
    #:
    #: ``blob`` caches the entry's serialised bytes (a pure function of
    #: the six fields above) the first time a durable writer encodes it
    #: -- see :func:`repro.storage.codec.entry_blob`.  Unset in in-memory
    #: engines, which never encode; not part of equality or hashing.
    __slots__ = (
        "key", "seqno", "kind", "value", "delete_key", "write_time", "digest", "blob",
    )

    def __init__(
        self,
        key: Any,
        seqno: int,
        kind: EntryKind,
        value: Any = None,
        delete_key: int | None = None,
        write_time: int = 0,
    ) -> None:
        self.key = key
        self.seqno = seqno
        self.kind = kind
        self.value = value
        self.write_time = write_time
        self.delete_key = write_time if delete_key is None else delete_key

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def put(
        cls,
        key: Any,
        value: Any,
        seqno: int,
        write_time: int = 0,
        delete_key: int | None = None,
    ) -> "Entry":
        """Build a value entry."""
        return cls(key, seqno, EntryKind.PUT, value, delete_key, write_time)

    @classmethod
    def tombstone(cls, key: Any, seqno: int, write_time: int = 0) -> "Entry":
        """Build a point-delete tombstone for ``key``."""
        return cls(key, seqno, EntryKind.TOMBSTONE, None, None, write_time)

    @classmethod
    def range_fence(
        cls, lo: int, hi: int, seqno: int, write_time: int = 0
    ) -> "Entry":
        """Build a range-tombstone fence over secondary keys ``[lo, hi]``.

        The fence rides the ordinary entry layout so the WAL codec needs
        no new record type: ``delete_key`` carries ``lo`` and ``value``
        carries ``hi``.  ``key`` is None -- a fence names no sort key.
        """
        return cls(None, seqno, EntryKind.RANGE_FENCE, hi, lo, write_time)

    # ------------------------------------------------------------------
    # predicates & accounting
    # ------------------------------------------------------------------
    @property
    def is_tombstone(self) -> bool:
        return self.kind is EntryKind.TOMBSTONE

    @property
    def is_put(self) -> bool:
        return self.kind is EntryKind.PUT

    @property
    def is_range_fence(self) -> bool:
        return self.kind is EntryKind.RANGE_FENCE

    def shadows(self, other: "Entry") -> bool:
        """True when this entry makes ``other`` obsolete (same key, newer)."""
        return self.key == other.key and self.seqno > other.seqno

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        if self.is_range_fence:
            return (
                f"Entry(FENCE dkey=[{self.delete_key}, {self.value}] "
                f"seq={self.seqno} t={self.write_time})"
            )
        tag = "DEL" if self.is_tombstone else "PUT"
        return (
            f"Entry({tag} key={self.key!r} seq={self.seqno} "
            f"t={self.write_time} dkey={self.delete_key})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entry):
            return NotImplemented
        return (
            self.key == other.key
            and self.seqno == other.seqno
            and self.kind == other.kind
            and self.value == other.value
            and self.delete_key == other.delete_key
            and self.write_time == other.write_time
        )

    def __hash__(self) -> int:
        return hash((self.key, self.seqno, self.kind))


def newest_wins(entries: list[Entry]) -> Entry:
    """Return the most recent entry among several versions of one key."""
    if not entries:
        raise ValueError("newest_wins() requires at least one entry")
    return max(entries, key=lambda e: e.seqno)
