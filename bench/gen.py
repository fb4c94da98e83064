"""Seeded inputs: plain op tuples and the model that predicts their results.

The benchmark owns its inputs.  Nothing here imports the program: a
stream is a function of ``(seed, mix, sizes)`` and ``random.Random`` alone,
so a later change to ``repro.workload`` cannot move what is measured.

Op tuples (the first two are exactly what ``apply_batch`` accepts, so the
set-up can bulk-load them unchanged)::

    ("put", key, value, delete_key)     insert or update
    ("delete", key)                     point delete
    ("get", key)                        point lookup, hit or empty
    ("scan", lo, hi)                    inclusive range, SCAN_SLOTS key slots wide
    ("rdel", 0, hi, method)             secondary range delete on the delete key

Delete keys are issued in increasing order (one per put) and every range
delete window starts at 0.  An older version of a key therefore always
carries a smaller delete key than the newer one, a window that removes the
newer version removes every older one too, and the model below is exact
without knowing what compaction has done.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Iterable

PUT, DELETE, GET, SCAN, RDEL = "put", "delete", "get", "scan", "rdel"

#: Width of every range scan, in key slots.
SCAN_SLOTS = 64


def contents_digest(pairs: Iterable[tuple[Any, Any]]) -> str:
    """sha256 over ``(key, value)`` pairs in the order given (key order)."""
    digest = hashlib.sha256()
    for key, value in pairs:
        digest.update(repr((key, value)).encode())
    return digest.hexdigest()


def scan_fingerprint(rows: list) -> tuple[int, int]:
    """What the drive loop keeps of a scan result: row count and a hash.

    Keeping the rows themselves would hold tens of MB alive and show up
    in ``peak_rss_mb``; the hash is per process, and so is the comparison.
    """
    return len(rows), hash(tuple(rows))


class Model:
    """What the store must contain: ``key -> (value, delete_key)``."""

    def __init__(self) -> None:
        self.rows: dict[int, tuple[str, int]] = {}
        self._by_delete_key: deque[tuple[int, int]] = deque()

    def put(self, key: int, value: str, delete_key: int) -> None:
        self.rows[key] = (value, delete_key)
        self._by_delete_key.append((delete_key, key))

    def delete(self, key: int) -> None:
        self.rows.pop(key, None)

    def range_delete(self, hi: int) -> list[int]:
        """Drop every row whose delete key is ``<= hi``; returns their keys."""
        rows = self.rows
        queue = self._by_delete_key
        removed = []
        while queue and queue[0][0] <= hi:
            delete_key, key = queue.popleft()
            row = rows.get(key)
            if row is not None and row[1] == delete_key:
                del rows[key]
                removed.append(key)
        return removed

    def get(self, key: int) -> str | None:
        row = self.rows.get(key)
        return None if row is None else row[0]

    def scan(self, lo: int, hi: int) -> list[tuple[int, str]]:
        rows = self.rows
        return [(k, rows[k][0]) for k in range(lo, hi + 1) if k in rows]

    def digest(self) -> str:
        rows = self.rows
        return contents_digest((k, rows[k][0]) for k in sorted(rows))


class KeySet:
    """Keys with O(1) add, discard and pick-by-index (list + swap-remove)."""

    def __init__(self) -> None:
        self.items: list[int] = []
        self._pos: dict[int, int] = {}

    def add(self, key: int) -> None:
        if key not in self._pos:
            self._pos[key] = len(self.items)
            self.items.append(key)

    def discard(self, key: int) -> None:
        index = self._pos.pop(key, None)
        if index is None:
            return
        last = self.items.pop()
        if index < len(self.items):
            self.items[index] = last
            self._pos[last] = index

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, key: int) -> bool:
        return key in self._pos


class Zipf:
    """Zipf(theta) ranks over ``n`` items by inverse-CDF lookup."""

    def __init__(self, n: int, theta: float) -> None:
        self._cdf = list(accumulate(rank**-theta for rank in range(1, n + 1)))
        self._total = self._cdf[-1]

    def rank(self, rng: random.Random) -> int:
        return bisect_left(self._cdf, rng.random() * self._total)


@dataclass(frozen=True)
class Mix:
    """Operation weights and key popularity of one measured stream."""

    insert: float = 0.0
    update: float = 0.0
    delete: float = 0.0
    get_hit: float = 0.0
    get_empty: float = 0.0
    scan: float = 0.0
    #: Share of inserts that bring back a point-deleted key.
    resurrect: float = 0.0
    #: Zipf exponent for picking live keys; None picks uniformly.
    zipf_theta: float | None = None
    #: One secondary range delete every this many ops (0: never).
    rdel_every: int = 0
    rdel_method: str = "auto"
    #: Share of the live delete-key span each range delete removes.
    rdel_window: float = 0.05


@dataclass
class Stream:
    """One connection's inputs and what they must produce."""

    setup: list[tuple]
    warmup: list[tuple]
    ops: list[tuple]
    #: Parallel to ``ops``: the value (or None) a get must return, the
    #: :func:`scan_fingerprint` a scan must produce, None for writes.
    expected: list[Any]
    model: Model
    key_lo: int
    key_hi: int
    counts: dict[str, int] = field(default_factory=dict)


def generate(
    seed: int,
    mix: Mix,
    ops: int,
    preload: int,
    key_lo: int,
    key_hi: int,
    preload_deletes: int = 0,
    setup_fence_window: float = 0.0,
    warmup_gets: int = 0,
) -> Stream:
    """Build one stream over keys ``[key_lo, key_hi)``.

    Set-up: ``preload`` distinct keys in shuffled order, then
    ``preload_deletes`` point deletes, then (``setup_fence_window`` > 0) one
    lazy range delete over that share of the oldest delete keys, then
    ``warmup_gets`` lookups drawn like the measured hits.
    """
    if key_hi - key_lo < 2 * (preload + SCAN_SLOTS):
        raise ValueError("key space must be at least twice the preload")
    rng = random.Random(seed)
    model = Model()
    live, dead = KeySet(), KeySet()
    next_delete_key = 0
    cutoff = -1

    def write(key: int) -> tuple:
        nonlocal next_delete_key
        delete_key = next_delete_key
        next_delete_key += 1
        value = f"v{delete_key}"
        model.put(key, value, delete_key)
        live.add(key)
        dead.discard(key)
        return (PUT, key, value, delete_key)

    def point_delete(key: int) -> tuple:
        model.delete(key)
        live.discard(key)
        dead.add(key)
        return (DELETE, key)

    def range_delete(window: float, method: str) -> tuple:
        nonlocal cutoff
        cutoff += max(1, int(window * (next_delete_key - 1 - cutoff)))
        for key in model.range_delete(cutoff):
            live.discard(key)
            dead.add(key)
        return (RDEL, 0, cutoff, method)

    setup: list[tuple] = [write(key) for key in rng.sample(range(key_lo, key_hi), preload)]
    for _ in range(preload_deletes):
        setup.append(point_delete(live.items[rng.randrange(len(live))]))
    if setup_fence_window:
        setup.append(range_delete(setup_fence_window, "lazy"))

    zipf = Zipf(max(1, len(live)), mix.zipf_theta) if mix.zipf_theta else None

    def pick_live() -> int:
        index = zipf.rank(rng) % len(live) if zipf else rng.randrange(len(live))
        return live.items[index]

    def pick_absent() -> int:
        while True:
            key = rng.randrange(key_lo, key_hi)
            if key not in live:
                return key

    warmup = [(GET, pick_live()) for _ in range(warmup_gets)]

    kinds = ["insert", "update", "delete", "get_hit", "get_empty", "scan"]
    cumulative = list(accumulate(getattr(mix, kind) for kind in kinds))
    if cumulative[-1] <= 0:
        raise ValueError("mix has no operation weights")
    out: list[tuple] = []
    expected: list[Any] = []
    counts = dict.fromkeys(kinds + ["rdel"], 0)
    for index in range(ops):
        if mix.rdel_every and index % mix.rdel_every == mix.rdel_every - 1:
            out.append(range_delete(mix.rdel_window, mix.rdel_method))
            expected.append(None)
            counts["rdel"] += 1
            continue
        kind = kinds[bisect_right(cumulative, rng.random() * cumulative[-1])]
        if not live and kind != "get_empty":
            kind = "insert"
        counts[kind] += 1
        if kind == "insert":
            if dead and rng.random() < mix.resurrect:
                key = dead.items[rng.randrange(len(dead))]
            else:
                key = pick_absent()
            out.append(write(key))
            expected.append(None)
        elif kind == "update":
            out.append(write(pick_live()))
            expected.append(None)
        elif kind == "delete":
            out.append(point_delete(pick_live()))
            expected.append(None)
        elif kind == "scan":
            lo = min(pick_live(), key_hi - SCAN_SLOTS)
            hi = lo + SCAN_SLOTS - 1
            out.append((SCAN, lo, hi))
            expected.append(scan_fingerprint(model.scan(lo, hi)))
        else:
            key = pick_live() if kind == "get_hit" else pick_absent()
            out.append((GET, key))
            expected.append(model.get(key))
    return Stream(setup, warmup, out, expected, model, key_lo, key_hi, counts)
