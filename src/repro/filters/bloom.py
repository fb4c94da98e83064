"""A Bloom filter with a configurable bits-per-key budget.

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
build the *same* key may feed both the file-level filter and a page-level
(KiWi) filter.  :func:`hash_pair` therefore operates on pre-encoded key
bytes and :meth:`BloomFilter.from_hash_pairs` accepts pre-computed digest
pairs, so the builder hashes each key exactly once no matter how many
filters it lands in.
"""

from __future__ import annotations

import math
import os
from hashlib import blake2b
from typing import Any, Iterable

try:  # vectorized filter construction; pure-Python fallback below
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None


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


def hash_pair(key_bytes: bytes, salt: bytes | None = None) -> tuple[int, int]:
    """The (h1, h2) double-hashing pair for pre-encoded key bytes.

    ``salt`` keys the digest (blake2b's native MAC mode): a filter built
    with a secret per-tree salt answers probes through a hash function an
    adversary cannot evaluate offline, so bloom-defeating key streams
    crafted against the public scheme degrade to the baseline FP rate.
    ``salt=None`` is bit-identical to the historical unsalted digest.
    """
    if salt is None:
        digest = blake2b(key_bytes, digest_size=16).digest()
    else:
        digest = blake2b(key_bytes, digest_size=16, key=salt).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1  # odd => full-cycle stride
    return h1, h2


#: Salt length for :func:`generate_salt` (blake2b accepts keys <= 64 bytes).
SALT_BYTES = 16


def generate_salt() -> bytes:
    """A fresh per-tree bloom salt (cryptographically random)."""
    return os.urandom(SALT_BYTES)


#: Bounded digest memo behind :func:`key_hash_pair`.  A plain dict beats
#: ``functools.lru_cache`` on the hit path (no wrapper call, no lock, no
#: recency bookkeeping) and the read path probes it once per *lookup*, so
#: the saved fraction compounds.  Pure function of the key -> a wholesale
#: clear on overflow is always safe.
_PAIR_MEMO: dict[Any, tuple[int, int]] = {}
_PAIR_MEMO_MAX = 1 << 18

#: Per-salt digest memos for salted trees (salt -> key -> pair).  Each
#: salt's memo is bounded like :data:`_PAIR_MEMO`; the outer map is tiny
#: (one entry per live salted tree in the process) but bounded anyway.
_SALTED_MEMOS: dict[bytes, dict[Any, tuple[int, int]]] = {}
_SALTED_MEMOS_MAX = 64


def key_hash_pair(key: Any, salt: bytes | None = None) -> tuple[int, int]:
    """Memoized :func:`hash_pair` keyed on the key object itself.

    An LSM engine hashes the same key many times over its life: once per
    filter probe and once per compaction that rewrites the entry (write
    amplification means an entry is re-filed ~W times).  The digest is
    pure, so a bounded memo turns all but the first into dict hits.
    Requires a hashable key; callers fall back to :func:`hash_pair` on
    ``TypeError`` for exotic key types.  Salted trees get their own memo
    per salt -- pairs from different salts must never alias.
    """
    if salt is None:
        memo = _PAIR_MEMO
    else:
        memo = _SALTED_MEMOS.get(salt)
        if memo is None:
            if len(_SALTED_MEMOS) >= _SALTED_MEMOS_MAX:
                _SALTED_MEMOS.clear()
            memo = _SALTED_MEMOS[salt] = {}
    pair = memo.get(key)
    if pair is None:
        if len(memo) >= _PAIR_MEMO_MAX:
            memo.clear()
        pair = memo[key] = hash_pair(_key_bytes(key), salt)
    return pair


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
        self.num_bits = max(8, int(num_keys * bits_per_key)) if bits_per_key > 0 else 0
        # k* = (m/n) ln 2 minimizes the false positive rate.  An enabled
        # filter always probes at least one bit so that a filter built
        # over an empty key set correctly answers "absent".
        self.num_hashes = max(1, round(bits_per_key * math.log(2))) if self.num_bits else 0
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
        bloom = cls(len(key_list), bits_per_key, salt=salt)
        if not bloom.num_bits:
            return bloom
        try:
            pairs = [key_hash_pair(key, salt) for key in key_list]
        except TypeError:  # unhashable key type: hash without the memo
            pairs = [hash_pair(_key_bytes(key), salt) for key in key_list]
        bloom._set_pairs(pairs)
        return bloom

    @classmethod
    def from_hash_pairs(
        cls,
        pairs: list[tuple[int, int]],
        bits_per_key: float,
        salt: bytes | None = None,
    ) -> "BloomFilter":
        """Build from pre-computed :func:`hash_pair` digests (one per key).

        Bit-identical to :meth:`build` over the corresponding keys; used by
        the file builder to share one digest per entry between the
        file-level and page-level filters.  ``salt`` must match the salt
        the pairs were hashed with -- it is recorded so that
        :meth:`might_contain` probes through the same keyed digest.
        """
        bloom = cls(len(pairs), bits_per_key, salt=salt)
        if not bloom.num_bits:
            return bloom
        bloom._set_pairs(pairs)
        return bloom

    def _set_pairs(self, pairs: list[tuple[int, int]]) -> None:
        # The construction inner loop -- filter builds run once per file
        # per compaction and dominate the CPU profile of a write-heavy
        # workload.  The probe sequence is (h1 + i*h2) % m; reducing h1
        # and h2 modulo m first keeps every intermediate below
        # num_hashes * m, so the arithmetic fits comfortably in int64 and
        # the whole batch vectorizes through numpy with *exactly* the same
        # bit positions as the scalar form (no unsigned wraparound).
        num_bits = self.num_bits
        num_hashes = self.num_hashes
        if (
            _np is not None
            and len(pairs) >= 16
            and num_bits * num_hashes < (1 << 62)
        ):
            # One C-level conversion of the pair list, then vectorized
            # modular reduction.  h1/h2 are 64-bit unsigned; uint64 '%'
            # matches Python's nonnegative '%' exactly, and the residues
            # fit int64 (num_bits << 2^62).  From here on every op is a
            # numpy inner loop that releases the GIL, which is what lets
            # concurrent compaction workers overlap filter construction.
            raw = _np.array(pairs, dtype=_np.uint64)
            r1 = (raw[:, 0] % _np.uint64(num_bits)).astype(_np.int64)
            r2 = (raw[:, 1] % _np.uint64(num_bits)).astype(_np.int64)
            steps = _np.arange(num_hashes, dtype=_np.int64)
            idx = (r1[:, None] + steps * r2[:, None]) % num_bits
            flags = _np.zeros(len(self._bits) * 8, dtype=_np.uint8)
            flags[idx.ravel()] = 1
            packed = _np.packbits(flags, bitorder="little")
            merged = _np.frombuffer(bytes(self._bits), dtype=_np.uint8) | packed
            self._bits[:] = merged.tobytes()
            return
        bits = self._bits
        probes = range(num_hashes)
        for h1, h2 in pairs:
            h = h1
            for _ in probes:
                bit = h % num_bits
                bits[bit >> 3] |= 1 << (bit & 7)
                h += h2

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def might_contain(self, key: Any) -> bool:
        """False means definitely absent; True means 'probably present'.

        With ``bits_per_key == 0`` the filter is disabled and always
        answers True (every lookup must probe the file).
        """
        try:
            h, h2 = key_hash_pair(key, self.salt)
        except TypeError:  # unhashable key type: hash without the memo
            h, h2 = hash_pair(_key_bytes(key), self.salt)
        return self.might_contain_hashed(h, h2)

    def might_contain_hashed(self, h: int, h2: int) -> bool:
        """:meth:`might_contain` for a pre-computed :func:`hash_pair`.

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
