"""Durable storage for runs and the manifest.

The engine can run fully in memory (the benchmark mode: the simulated disk
does the accounting) or durably against a directory.  In durable mode each
file (SSTable) is serialized here and the level structure is recorded in a
JSON manifest, both published with full crash-safety discipline:

1. the payload is written to a ``*.tmp`` sibling;
2. the temp file is fsynced (its bytes are on the device);
3. ``os.replace`` atomically renames it into place;
4. the parent directory is fsynced (the *name* is on the device).

A crash at any point leaves either the old file or the new file -- never a
torn half of each -- and a leftover ``*.tmp`` that startup sweeps away.
Transient I/O errors (``EIO``/``ENOSPC``) are absorbed by a bounded
retry-with-backoff; exhaustion surfaces as :class:`StorageError`.

SSTable file format::

    magic(4) meta_len(4) meta_json
    tile_count(4) [pages_in_tile(4) ...]
    page_count(4) [page_len(4) page_bytes ...]
    crc32(4)                       # over every preceding byte

Pages are the CRC-protected blocks of :mod:`repro.storage.codec`; tile
boundaries preserve the KiWi layout across restarts.  The trailing whole-file
checksum catches corruption in the regions page CRCs cannot see (the header
and tile directory); ``doctor scrub`` re-verifies it offline.

The manifest carries an integrity envelope: a monotonically increasing
``epoch`` (incremented on every publish) and a ``crc`` over its canonical
JSON.  :meth:`read_manifest` verifies and strips the envelope, exposing the
epoch via :attr:`FileStore.manifest_epoch`; corruption raises
:class:`CorruptionError` naming the epoch when one can be recovered.

Every durable transition passes through a named fault point (see
:mod:`repro.storage.faults`), so tests can interrupt or corrupt each step
deterministically.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from pathlib import Path

from repro.errors import CorruptionError, StorageError
from repro.lsm.entry import Entry
from repro.storage import faults as fp
from repro.storage.codec import decode_page, encode_page
from repro.storage.faults import FaultInjector, SimulatedCrash, retry_transient

SSTABLE_MAGIC = 0x41434832  # "ACH2"
MANIFEST_NAME = "MANIFEST.json"

_u32 = struct.Struct("<I")
_epoch_re = re.compile(r'"epoch":\s*(\d+)')


class FileStore:
    """Reads and writes SSTable files and the manifest in one directory."""

    def __init__(self, directory: str | Path, faults: FaultInjector | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Optional fault injector; when set, every durable transition
        #: consults it (see :mod:`repro.storage.faults`).
        self.faults = faults
        #: Epoch of the most recently read or written manifest (None until
        #: either happens).
        self.manifest_epoch: int | None = None

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def sstable_path(self, file_id: int) -> Path:
        return self.directory / f"sst-{file_id:08d}.ach"

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def wal_path(self) -> Path:
        return self.directory / "wal.log"

    # ------------------------------------------------------------------
    # crash-safety primitives
    # ------------------------------------------------------------------
    def _retry(self, action, what: str):
        """Bounded retry-with-backoff (see :func:`retry_transient`)."""
        return retry_transient(action, what)

    def _write_payload(self, tmp: Path, data: bytes, point: str) -> None:
        inj = self.faults
        if inj is None:
            tmp.write_bytes(data)
            return
        inj.fire(point)
        payload, crash_after = inj.mangle(point, data)
        tmp.write_bytes(payload)
        if crash_after:
            raise SimulatedCrash(point)

    def _fsync_file(self, path: Path, point: str) -> None:
        inj = self.faults
        if inj is not None:
            inj.fire(point)
            if not inj.allows_fsync(point):
                return
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _fsync_directory(self, point: str) -> None:
        inj = self.faults
        if inj is not None:
            inj.fire(point)
            if not inj.allows_fsync(point):
                return
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform without dir-fsync
            pass
        finally:
            os.close(fd)

    def _publish(
        self,
        path: Path,
        data: bytes,
        write_point: str,
        fsync_point: str,
        rename_point: str,
        dirsync_point: str,
    ) -> None:
        """fsync-then-rename publication of ``data`` at ``path``."""
        tmp = path.with_suffix(".tmp")

        def attempt() -> None:
            self._write_payload(tmp, data, write_point)
            self._fsync_file(tmp, fsync_point)
            if self.faults is not None:
                self.faults.fire(rename_point)
            os.replace(tmp, path)
            self._fsync_directory(dirsync_point)

        self._retry(attempt, f"publishing {path.name}")

    def temp_files(self) -> list[Path]:
        """Leftover ``*.tmp`` siblings from interrupted publications."""
        return sorted(self.directory.glob("*.tmp"))

    def clean_temp_files(self) -> list[str]:
        """Remove orphaned temp files (startup hygiene); returns their names."""
        removed = []
        for tmp in self.temp_files():
            self._retry(lambda t=tmp: t.unlink(missing_ok=True), f"removing {tmp.name}")
            removed.append(tmp.name)
        return removed

    # ------------------------------------------------------------------
    # sstables
    # ------------------------------------------------------------------
    def write_sstable(
        self,
        file_id: int,
        tiles: list[list[list[Entry]]],
        meta: dict | None = None,
    ) -> int:
        """Persist one SSTable (a list of delete tiles, each a list of
        pages) with full crash-safety discipline; returns its checksum."""
        buf = bytearray()
        meta_json = json.dumps(meta or {}).encode("utf-8")
        buf += _u32.pack(SSTABLE_MAGIC)
        buf += _u32.pack(len(meta_json))
        buf += meta_json
        buf += _u32.pack(len(tiles))
        pages: list[list[Entry]] = []
        for tile in tiles:
            buf += _u32.pack(len(tile))
            pages.extend(tile)
        buf += _u32.pack(len(pages))
        for page in pages:
            blob = encode_page(page)
            buf += _u32.pack(len(blob))
            buf += blob
        checksum = zlib.crc32(buf)
        buf += _u32.pack(checksum)
        self._publish(
            self.sstable_path(file_id),
            bytes(buf),  # immutable for the fault injector's mangle
            fp.SSTABLE_WRITE,
            fp.SSTABLE_FSYNC,
            fp.SSTABLE_RENAME,
            fp.SSTABLE_DIRSYNC,
        )
        return checksum

    def read_sstable(self, file_id: int) -> tuple[list[list[list[Entry]]], dict]:
        """Load one SSTable; returns (tiles, meta).

        Raises :class:`CorruptionError` on any damage: a failed whole-file
        checksum, a bad magic, torn framing, or a page CRC mismatch.
        """
        path = self.sstable_path(file_id)
        if not path.exists():
            raise StorageError(f"sstable {file_id} not found at {path}")
        data = path.read_bytes()
        # Whole-file footer checksum (absent only in pre-footer files,
        # whose framing is still fully self-terminating).
        body = data
        if len(data) >= 8:
            (footer,) = _u32.unpack_from(data, len(data) - 4)
            if zlib.crc32(data[:-4]) == footer:
                body = data[:-4]
        offset = 0
        try:
            (magic,) = _u32.unpack_from(body, offset)
            offset += 4
            if magic != SSTABLE_MAGIC:
                raise CorruptionError(f"bad sstable magic {magic:#x} in {path}")
            (meta_len,) = _u32.unpack_from(body, offset)
            offset += 4
            meta = json.loads(body[offset : offset + meta_len].decode("utf-8"))
            offset += meta_len
            (tile_count,) = _u32.unpack_from(body, offset)
            offset += 4
            tile_sizes: list[int] = []
            for _ in range(tile_count):
                (size,) = _u32.unpack_from(body, offset)
                offset += 4
                tile_sizes.append(size)
            (page_count,) = _u32.unpack_from(body, offset)
            offset += 4
            pages: list[list[Entry]] = []
            for _ in range(page_count):
                (blob_len,) = _u32.unpack_from(body, offset)
                offset += 4
                pages.append(decode_page(body[offset : offset + blob_len]))
                offset += blob_len
        except struct.error as exc:
            raise CorruptionError(f"truncated sstable file {path}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptionError(f"corrupt sstable metadata in {path}") from exc
        if offset != len(body):
            raise CorruptionError(
                f"{len(body) - offset} trailing bytes in sstable file {path}"
            )
        if sum(tile_sizes) != page_count:
            raise CorruptionError(f"tile directory of {path} does not cover its pages")
        tiles: list[list[list[Entry]]] = []
        cursor = 0
        for size in tile_sizes:
            tiles.append(pages[cursor : cursor + size])
            cursor += size
        return tiles, meta

    def checksum_sstable(self, file_id: int) -> int:
        """Verify one SSTable's whole-file checksum; returns it.

        Used by ``doctor scrub``.  Pre-footer files are fully decoded
        instead (their pages carry the only checksums they have).
        """
        path = self.sstable_path(file_id)
        if not path.exists():
            raise StorageError(f"sstable {file_id} not found at {path}")
        data = path.read_bytes()
        if len(data) >= 8:
            (footer,) = _u32.unpack_from(data, len(data) - 4)
            if zlib.crc32(data[:-4]) == footer:
                return footer
        # No (valid) footer: either corruption or a pre-footer file.
        # A full decode distinguishes the two.
        self.read_sstable(file_id)
        return zlib.crc32(data)

    def delete_sstable(self, file_id: int) -> None:
        """Remove one SSTable file (idempotent)."""
        path = self.sstable_path(file_id)

        def attempt() -> None:
            if self.faults is not None:
                self.faults.fire(fp.SSTABLE_DELETE)
            path.unlink(missing_ok=True)

        self._retry(attempt, f"deleting {path.name}")

    def list_sstable_ids(self) -> list[int]:
        """All file ids present on disk, ascending.

        Leftover ``*.tmp`` files from interrupted publications are never
        listed (the glob requires the ``.ach`` suffix); startup removes
        them via :meth:`clean_temp_files`.
        """
        ids = []
        for path in self.directory.glob("sst-*.ach"):
            stem = path.stem  # "sst-00000001"
            try:
                ids.append(int(stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(ids)

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    @staticmethod
    def _canonical_crc(payload: dict) -> int:
        return zlib.crc32(json.dumps(payload, sort_keys=True).encode("utf-8"))

    def _epoch_on_disk(self) -> int:
        """Best-effort epoch of the on-disk manifest (0 when none)."""
        try:
            text = self.manifest_path.read_text()
        except OSError:
            return 0
        match = _epoch_re.search(text)
        return int(match.group(1)) if match else 0

    def write_manifest(self, manifest: dict) -> int:
        """Atomically replace the manifest; returns the new epoch.

        The stored document is ``manifest`` plus an integrity envelope:
        ``epoch`` (monotonic publish counter) and ``crc`` (over the
        canonical JSON of everything else).
        """
        if self.manifest_epoch is None:
            self.manifest_epoch = self._epoch_on_disk()
        epoch = self.manifest_epoch + 1
        payload = dict(manifest)
        payload["epoch"] = epoch
        payload["crc"] = self._canonical_crc(payload)
        self._publish(
            self.manifest_path,
            json.dumps(payload, indent=1, sort_keys=True).encode("utf-8"),
            fp.MANIFEST_WRITE,
            fp.MANIFEST_FSYNC,
            fp.MANIFEST_RENAME,
            fp.MANIFEST_DIRSYNC,
        )
        self.manifest_epoch = epoch
        return epoch

    def read_manifest(self) -> dict | None:
        """The current manifest (envelope verified and stripped), or None
        if the store is empty.

        Raises :class:`CorruptionError` -- naming the manifest epoch when
        one is recoverable -- if the document is not valid JSON or fails
        its checksum.
        """
        if not self.manifest_path.exists():
            return None
        text = self.manifest_path.read_text()
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            epoch = self._scrape_epoch(text)
            raise CorruptionError(
                f"manifest {self.manifest_path} is not valid JSON"
                + (f" (epoch {epoch})" if epoch is not None else "")
            ) from exc
        if not isinstance(document, dict):
            raise CorruptionError(f"manifest {self.manifest_path} is not a JSON object")
        if "crc" in document:
            recorded = document.pop("crc")
            if self._canonical_crc(document) != recorded:
                epoch = document.get("epoch")
                raise CorruptionError(
                    f"manifest {self.manifest_path} fails its checksum"
                    + (f" (epoch {epoch})" if epoch is not None else "")
                )
        epoch = document.pop("epoch", None)
        if isinstance(epoch, int):
            self.manifest_epoch = epoch
        return document

    @staticmethod
    def _scrape_epoch(text: str) -> int | None:
        match = _epoch_re.search(text)
        return int(match.group(1)) if match else None

    def garbage_collect(self, live_file_ids: set[int]) -> list[int]:
        """Delete sstables not referenced by the manifest; returns their ids."""
        removed = []
        for file_id in self.list_sstable_ids():
            if file_id not in live_file_ids:
                self.delete_sstable(file_id)
                removed.append(file_id)
        return removed
