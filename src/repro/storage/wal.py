"""Write-ahead log for the memtable.

Every ingest (put or tombstone) is appended here before it enters the
memtable; after a flush has *published* the buffer (files fsynced, manifest
swapped) the log is rotated.  On restart, :meth:`WriteAheadLog.replay`
yields the surviving entries in append order so the engine can rebuild the
exact buffer state.

Framing is ``length(4) crc32(4) payload`` per record.  Replay stops cleanly
at the first torn or corrupt record (the normal crash shape: a partial final
append) but raises :class:`~repro.errors.CorruptionError` if damage is
found *before* the tail, since that indicates real corruption rather than a
crash mid-write.

Rotation is crash-safe: a fresh empty log is written beside the old one and
atomically renamed over it (fsynced when ``sync=True``), so a crash at any
instant leaves either the full old log or the fresh one -- never an
in-place half-truncated file.  The engine orders rotation strictly *after*
manifest publication; see ``DESIGN.md`` ("Durability & crash recovery").

Every durable transition passes through a named fault point (see
:mod:`repro.storage.faults`) when a :class:`FaultInjector` is attached.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import CorruptionError, WALError
from repro.lsm.entry import Entry
from repro.storage import faults as fp
from repro.storage.codec import decode_entry, entry_blob
from repro.storage.faults import FaultInjector, SimulatedCrash, retry_transient

_frame = struct.Struct("<II")  # payload length, crc32


def _frames(entries: Iterable[Entry]) -> bytes:
    """One ``length(4) crc32(4) payload`` record per entry, concatenated."""
    parts = []
    for entry in entries:
        payload = entry_blob(entry)
        parts.append(_frame.pack(len(payload), zlib.crc32(payload)))
        parts.append(payload)
    return b"".join(parts)


class WriteAheadLog:
    """An append-only, checksummed journal of entries."""

    def __init__(
        self,
        path: str | Path,
        sync: bool = False,
        faults: FaultInjector | None = None,
    ) -> None:
        self.path = Path(path)
        self.sync = sync
        self.faults = faults
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")
        self.records_appended = 0
        self.rotations = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _write_buffer(self, buffer: bytes) -> None:
        """Append ``buffer``, flush, and (optionally) fsync -- with fault
        points and bounded retry for transient I/O errors."""
        inj = self.faults

        def attempt() -> None:
            if inj is not None:
                inj.fire(fp.WAL_APPEND)
                payload, crash_after = inj.mangle(fp.WAL_APPEND, buffer)
                self._fh.write(payload)
                self._fh.flush()
                if crash_after:
                    raise SimulatedCrash(fp.WAL_APPEND)
            else:
                self._fh.write(buffer)
                self._fh.flush()
            if self.sync:
                if inj is not None:
                    inj.fire(fp.WAL_FSYNC)
                    if not inj.allows_fsync(fp.WAL_FSYNC):
                        return
                os.fsync(self._fh.fileno())

        retry_transient(attempt, f"appending to WAL {self.path.name}")

    def append(self, entry: Entry) -> None:
        """Durably append one entry."""
        if self._fh.closed:
            raise WALError(f"WAL {self.path} is closed")
        self._write_buffer(_frames((entry,)))
        self.records_appended += 1

    def append_many(self, entries: list[Entry]) -> None:
        """Append a batch of entries with one write, flush, and (optional)
        fsync -- the record framing is identical to per-entry appends, so
        replay cannot tell the difference."""
        if not entries:
            return
        if self._fh.closed:
            raise WALError(f"WAL {self.path} is closed")
        self._write_buffer(_frames(entries))
        self.records_appended += len(entries)

    def truncate(self) -> None:
        """Discard all records via crash-safe rotation.

        A fresh empty log is written to a temp sibling and atomically
        renamed over the live one (fsync of file and directory when
        ``sync=True``).  Called only after the flushed entries have been
        published through the manifest, so a crash at any point here
        loses nothing: either the old log survives (its records replay as
        already-persisted duplicates, filtered by seqno at recovery) or
        the fresh log is in place.
        """
        self._rotate(b"")

    def rewrite(self, entries: list[Entry]) -> None:
        """Atomically replace the log's contents with ``entries``.

        Same crash-safe rotation as :meth:`truncate`, but the fresh log
        carries records: used when an operation removes entries from the
        memtable *without* flushing (a secondary range delete), where the
        old log would resurrect the purged values on replay.  A crash at
        any instant leaves either the complete old log or the complete
        new one.
        """
        self._rotate(_frames(entries))
        self.records_appended += len(entries)

    def _rotate(self, contents: bytes) -> None:
        if self._fh.closed:
            raise WALError(f"WAL {self.path} is closed")
        inj = self.faults
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")  # wal.log.tmp

        def attempt() -> None:
            if inj is not None:
                inj.fire(fp.WAL_ROTATE_WRITE)
                payload, crash_after = inj.mangle(fp.WAL_ROTATE_WRITE, contents)
                tmp.write_bytes(payload)
                if crash_after:
                    raise SimulatedCrash(fp.WAL_ROTATE_WRITE)
            else:
                tmp.write_bytes(contents)
            if self.sync:
                fd = os.open(tmp, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            if inj is not None:
                inj.fire(fp.WAL_ROTATE_RENAME)
            os.replace(tmp, self.path)
            if self.sync:
                if inj is not None:
                    inj.fire(fp.WAL_ROTATE_DIRSYNC)
                    if not inj.allows_fsync(fp.WAL_ROTATE_DIRSYNC):
                        return
                try:
                    fd = os.open(self.path.parent, os.O_RDONLY)
                except OSError:  # pragma: no cover - platform without dir-open
                    return
                try:
                    os.fsync(fd)
                except OSError:  # pragma: no cover - platform without dir-fsync
                    pass
                finally:
                    os.close(fd)

        retry_transient(attempt, f"rotating WAL {self.path.name}")
        # The live path now names the fresh inode; swap the append handle.
        old = self._fh
        self._fh = open(self.path, "ab")
        old.close()
        self.rotations += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @staticmethod
    def replay(path: str | Path) -> Iterator[Entry]:
        """Yield surviving entries from ``path`` in append order.

        A torn final record (crash mid-append) is tolerated silently;
        corruption anywhere else raises :class:`CorruptionError`.
        """
        path = Path(path)
        if not path.exists():
            return
        data = path.read_bytes()
        offset = 0
        total = len(data)
        while offset < total:
            header = data[offset : offset + _frame.size]
            if len(header) < _frame.size:
                return  # torn tail: header itself is partial
            length, crc = _frame.unpack(header)
            start = offset + _frame.size
            payload = data[start : start + length]
            if len(payload) < length:
                return  # torn tail: payload is partial
            if zlib.crc32(payload) != crc:
                if start + length >= total:
                    return  # corrupt final record: treat as torn tail
                raise CorruptionError(f"WAL record at offset {offset} fails its checksum")
            entry, consumed = decode_entry(payload, 0)
            if consumed != length:
                raise CorruptionError(f"WAL record at offset {offset} has trailing bytes")
            yield entry
            offset = start + length
