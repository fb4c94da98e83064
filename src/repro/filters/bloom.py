"""Bloom filters: one per file, one bit-sliced filter per KiWi tile.

One filter guards each file (SSTable): a point lookup probes the filter
before paying any page read, so a negative skips the file entirely.  The
memory budget (``bits_per_key``) is the knob the T2 experiment sweeps --
fewer bits means more false positives, means more wasted page reads, and
tombstone-laden trees amplify that waste (the F8 experiment).

Hashing uses ``blake2b`` split into two 64-bit halves combined with the
Kirsch-Mitzenmacher double-hashing scheme, so membership answers are
deterministic across processes (Python's builtin ``hash`` is salted per
process and would break reproducibility).

The digest is the expensive part of filter construction, and during a file
build the *same* key feeds both the file filter and its tile's
:class:`TileFilter`.  Digests therefore travel as raw 16-byte strings
(:func:`key_digest`, cached on each entry by the file builder): a build
joins them into one buffer, :func:`hash_pairs` views that buffer as two
``uint64`` columns without copying, and every filter of the file is set
from those columns in vectorized passes.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from hashlib import blake2b
from struct import Struct
from typing import Any, Iterable

import numpy as np

#: Size of one key digest: the two little-endian 64-bit halves h1, h2.
DIGEST_BYTES = 16
_UNPACK_PAIR = Struct("<QQ").unpack


def _key_bytes(key: Any) -> bytes:
    """Canonical byte encoding of a key for hashing."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, int):
        length = max(1, (key.bit_length() + 8) // 8)
        return key.to_bytes(length, "little", signed=True)
    return repr(key).encode("utf-8")


def _digest(key: Any, salt: bytes | None) -> bytes:
    """The 16-byte blake2b digest of ``key``.

    ``salt`` keys the digest (blake2b's native MAC mode): a filter built
    with a secret per-tree salt answers probes through a hash function an
    adversary cannot evaluate offline, so bloom-defeating key streams
    crafted against the public scheme degrade to the baseline FP rate.
    ``salt=None`` is the historical unsalted digest.
    """
    if salt is None:
        return blake2b(_key_bytes(key), digest_size=DIGEST_BYTES).digest()
    return blake2b(_key_bytes(key), digest_size=DIGEST_BYTES, key=salt).digest()


#: Salt length for :func:`generate_salt` (blake2b accepts keys <= 64 bytes).
SALT_BYTES = 16


def generate_salt() -> bytes:
    """A fresh per-tree bloom salt (cryptographically random)."""
    return os.urandom(SALT_BYTES)


#: Bounded digest memo behind :func:`key_digest`.  A plain dict beats
#: ``functools.lru_cache`` on the hit path (no wrapper call, no lock, no
#: recency bookkeeping) and the read path probes it once per *lookup*, so
#: the saved fraction compounds.  Pure function of the key -> a wholesale
#: clear on overflow is always safe.
_DIGEST_MEMO: dict[Any, bytes] = {}
_DIGEST_MEMO_MAX = 1 << 18

#: Per-salt digest memos for salted trees (salt -> key -> digest).  Each
#: salt's memo is bounded like :data:`_DIGEST_MEMO`; the outer map is tiny
#: (one entry per live salted tree in the process) but bounded anyway.
_SALTED_MEMOS: dict[bytes, dict[Any, bytes]] = {}
_SALTED_MEMOS_MAX = 64


def key_digest(key: Any, salt: bytes | None = None) -> bytes:
    """Memoized 16-byte digest of ``key`` (see :func:`_digest`).

    An LSM engine hashes the same key many times over its life: once per
    filter probe and once per compaction that rewrites the entry (write
    amplification means an entry is re-filed ~W times).  The digest is
    pure, so a bounded memo turns all but the first into dict hits.
    Unhashable keys bypass the memo.  Salted trees get their own memo per
    salt -- digests under different salts must never alias.
    """
    if salt is None:
        memo = _DIGEST_MEMO
    else:
        memo = _SALTED_MEMOS.get(salt)
        if memo is None:
            if len(_SALTED_MEMOS) >= _SALTED_MEMOS_MAX:
                _SALTED_MEMOS.clear()
            memo = _SALTED_MEMOS[salt] = {}
    try:
        digest = memo.get(key)
    except TypeError:  # unhashable key type: hash without the memo
        return _digest(key, salt)
    if digest is None:
        if len(memo) >= _DIGEST_MEMO_MAX:
            memo.clear()
        digest = memo[key] = _digest(key, salt)
    return digest


def key_hash_pair(key: Any, salt: bytes | None = None) -> tuple[int, int]:
    """The ``(h1, h2)`` double-hashing pair of ``key`` (h2 forced odd).

    A point lookup computes this once and probes every filter on its path
    with it -- file filters and tile filters alike.
    """
    h1, h2 = _UNPACK_PAIR(key_digest(key, salt))
    return h1, h2 | 1  # odd => full-cycle stride


def hash_pairs(digests: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``(h1, h2)`` columns of concatenated digests, as ``uint64`` arrays.

    Row ``i`` equals :func:`key_hash_pair` of the ``i``-th digest; the
    view over ``digests`` is zero-copy (only ``h2 | 1`` allocates).
    """
    raw = np.frombuffer(digests, dtype="<u8")
    return raw[0::2], raw[1::2] | np.uint64(1)


def _num_hashes(bits_per_key: float) -> int:
    # k* = (m/n) ln 2 minimizes the false positive rate.  An enabled
    # filter always probes at least one bit so that a filter built over
    # an empty key set correctly answers "absent".
    return max(1, round(bits_per_key * math.log(2)))


def _num_bits(num_keys: int, bits_per_key: float) -> int:
    return max(8, int(num_keys * bits_per_key)) if bits_per_key > 0 else 0


def _probe_positions(
    h1: np.ndarray, h2: np.ndarray, num_bits: Any, num_hashes: int
) -> np.ndarray:
    """The ``(k, n)`` bit positions ``(h1 + i*h2) % num_bits`` of ``n`` keys.

    ``num_bits`` is a scalar or one modulus per key.  Reducing h1 and h2
    modulo ``num_bits`` first keeps every intermediate below
    ``num_hashes * num_bits``, so the arithmetic never wraps and the
    positions equal the scalar form's exactly; it runs in ``int32`` when
    that bound allows (integer division is the pass's dominant cost, and
    halves at half the width).
    """
    m = np.asarray(num_bits, dtype=np.uint64)
    r1 = h1 % m
    r2 = h2 % m
    dtype = np.int32 if num_hashes * int(m.max()) < 1 << 31 else np.int64
    m = m.astype(dtype)
    positions = np.multiply.outer(np.arange(num_hashes, dtype=dtype), r2.astype(dtype))
    positions += r1.astype(dtype)
    positions %= m
    return positions


class BloomFilter:
    """An approximate-membership filter over a fixed key set.

    Built once (at file-construction time) from the full key list; the
    engine never inserts into a live filter, matching how LSM engines build
    per-SSTable filters during compaction.
    """

    __slots__ = (
        "num_bits",
        "num_hashes",
        "_bits",
        "probes",
        "false_positive_budget",
        "salt",
    )

    def __init__(
        self, num_keys: int, bits_per_key: float, salt: bytes | None = None
    ) -> None:
        if num_keys < 0:
            raise ValueError(f"num_keys must be >= 0, got {num_keys}")
        if bits_per_key < 0:
            raise ValueError(f"bits_per_key must be >= 0, got {bits_per_key}")
        self.salt = salt
        self.num_bits = _num_bits(num_keys, bits_per_key)
        self.num_hashes = _num_hashes(bits_per_key) if self.num_bits else 0
        self._bits = bytearray((self.num_bits + 7) // 8) if self.num_bits else bytearray()
        self.probes = 0
        self.false_positive_budget = bits_per_key

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, keys: Iterable[Any], bits_per_key: float, salt: bytes | None = None
    ) -> "BloomFilter":
        """Build a filter sized for ``keys`` and populate it."""
        key_list = keys if isinstance(keys, (list, tuple)) else list(keys)
        if bits_per_key <= 0 or not key_list:
            return cls(len(key_list), bits_per_key, salt=salt)
        h1, h2 = hash_pairs(b"".join([key_digest(key, salt) for key in key_list]))
        return cls.from_hash_pairs(h1, h2, bits_per_key, salt=salt)

    @classmethod
    def from_hash_pairs(
        cls,
        h1: np.ndarray,
        h2: np.ndarray,
        bits_per_key: float,
        salt: bytes | None = None,
    ) -> "BloomFilter":
        """Build from pre-computed :func:`hash_pairs` columns (one row per key).

        Bit-identical to :meth:`build` over the corresponding keys; the
        file builder uses it to share one digest per entry between the
        file filter and the tile filters.  ``salt`` must match the salt
        the digests were taken with -- it is recorded so that
        :meth:`might_contain` probes through the same keyed digest.
        """
        bloom = cls(len(h1), bits_per_key, salt=salt)
        if not bloom.num_bits or not len(h1):
            return bloom
        flags = np.zeros(len(bloom._bits) * 8, dtype=np.uint8)
        flags[_probe_positions(h1, h2, bloom.num_bits, bloom.num_hashes).ravel()] = 1
        bloom._bits = bytearray(np.packbits(flags, bitorder="little").tobytes())
        return bloom

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def might_contain(self, key: Any) -> bool:
        """False means definitely absent; True means 'probably present'.

        With ``bits_per_key == 0`` the filter is disabled and always
        answers True (every lookup must probe the file).
        """
        h, h2 = key_hash_pair(key, self.salt)
        return self.might_contain_hashed(h, h2)

    def might_contain_hashed(self, h: int, h2: int) -> bool:
        """:meth:`might_contain` for a pre-computed :func:`key_hash_pair`.

        The point-lookup hot path hashes the key once per *lookup* and
        probes every run's filter with the same pair, so the digest (and
        its memo probe) is not repeated per level.
        """
        self.probes += 1
        num_bits = self.num_bits
        if not num_bits:
            return True
        bits = self._bits
        for _ in range(self.num_hashes):
            bit = h % num_bits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            h += h2
        return True

    @property
    def size_bytes(self) -> int:
        """Memory footprint of the bit array."""
        return len(self._bits)

    def expected_false_positive_rate(self, num_keys: int) -> float:
        """Theoretical FP rate for a filter of this size holding ``num_keys``."""
        if not self.num_bits or not num_keys:
            return 1.0 if not self.num_bits else 0.0
        exponent = -self.num_hashes * num_keys / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes


#: Lane widths in bits and their ``array`` typecodes.  A tile of ``h``
#: pages needs a lane of at least ``h`` bits, so a file with a tile of
#: more than :data:`MAX_TILE_PAGES` pages gets no tile filters.
_LANES = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))
MAX_TILE_PAGES = _LANES[-1][0]


class TileFilter:
    """The Bloom filters of one KiWi tile's pages, bit-sliced into one array.

    Lane ``b`` has bit ``p`` set when page ``p``'s filter has bit ``b``.
    Every page's filter has the same size (taken from the tile's largest
    page) and hash count, so one probe sequence over the lanes answers
    for all pages at once: ANDing the ``k`` probed lanes leaves exactly
    the pages whose filter may contain the key.  A lookup then reads only
    those pages instead of every page whose key range covers the key --
    the KiWi weave's point-read penalty, mitigated.
    """

    __slots__ = ("num_bits", "num_hashes", "lanes", "all_pages")

    def __init__(self, num_bits: int, num_hashes: int, lanes: array, pages: int) -> None:
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.lanes = lanes
        #: Mask with one bit per page of the tile.
        self.all_pages = (1 << pages) - 1

    def candidates(self, h: int, h2: int) -> int:
        """Bit mask of the pages that may hold the key hashed to ``(h, h2)``."""
        num_bits = self.num_bits
        lanes = self.lanes
        mask = self.all_pages
        for _ in range(self.num_hashes):
            mask &= lanes[h % num_bits]
            if not mask:
                return 0
            h += h2
        return mask


def build_tile_filters(
    h1: np.ndarray,
    h2: np.ndarray,
    tile_pages: list[list[int]],
    bits_per_key: float,
) -> list[TileFilter | None]:
    """One :class:`TileFilter` per tile, every tile set in one vectorized pass.

    ``h1``/``h2`` hold one row per entry in physical order (tile by tile,
    page by page); ``tile_pages[t]`` lists tile ``t``'s page sizes.  A
    single-page tile needs no filter (its one page is the only candidate)
    and gets None.  So does every tile when ``bits_per_key`` is 0 or some
    tile has more pages than a lane has bits (:data:`MAX_TILE_PAGES`).
    """
    widest = max(map(len, tile_pages), default=0)
    if bits_per_key <= 0 or not 1 < widest <= MAX_TILE_PAGES:
        return [None] * len(tile_pages)
    num_hashes = _num_hashes(bits_per_key)
    width, typecode = next(lane for lane in _LANES if lane[0] >= widest)
    # Flag ``lane * width + page`` is bit ``page`` of lane ``lane``; the
    # tiles' lanes are laid end to end, tile ``t``'s from ``spans[t]``.
    sizes: list[int] = []
    per_page: list[tuple[int, int]] = []  # (num_bits, flag of lane 0)
    spans: list[tuple[int, int]] = []  # (first lane, num_bits)
    total = 0
    for pages in tile_pages:
        num_bits = _num_bits(max(pages), bits_per_key)
        for page, size in enumerate(pages):
            sizes.append(size)
            per_page.append((num_bits, total * width + page))
        spans.append((total, num_bits))
        total += num_bits
    moduli, bases = np.repeat(np.array(per_page, dtype=np.uint64).T, sizes, axis=1)
    positions = _probe_positions(h1, h2, moduli, num_hashes).astype(np.intp)
    positions *= width
    positions += bases.astype(np.intp)
    flags = np.zeros(total * width, dtype=np.uint8)
    flags[positions.ravel()] = 1
    packed = np.packbits(flags, bitorder="little").tobytes()
    step = width // 8
    out: list[TileFilter | None] = []
    for pages, (start, num_bits) in zip(tile_pages, spans):
        if len(pages) == 1:
            out.append(None)
            continue
        lanes = array(typecode, packed[start * step : (start + num_bits) * step])
        if sys.byteorder == "big":  # packed lanes are little-endian
            lanes.byteswap()
        out.append(TileFilter(num_bits, num_hashes, lanes, len(pages)))
    return out
