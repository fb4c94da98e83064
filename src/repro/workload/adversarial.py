"""Seeded adversarial workload generators.

*LSM Trees in Adversarial Environments* shows that an adversary who
controls the key stream can attack exactly the structures our benign
benchmarks celebrate: Bloom filters (pre-compute false positives against
the public hash scheme), the block cache (one-hit-wonder and
negative-lookup floods), the shard router (concentrate every write on one
range), and FADE's ``D_th`` ledger (tombstone churn).  This module builds
those attacks as ordinary :class:`~repro.workload.spec.Operation` streams
-- seeded, deterministic, and runnable through
:func:`~repro.workload.runner.run_workload` and the CLI -- so a
test can measure each defense against the *same* stream its undefended
counterpart faces (``tests/test_adversarial.py``).

Every builder shares one signature::

    build(seed=..., preload=..., operations=..., **knobs) -> list[Operation]

and is registered in :data:`ADVERSARIES` under its attack name.  The hot
set convention: attacks that measure cache residency treat the first
:data:`HOT_SET_SLOTS` preloaded slots as the victim working set (see
:func:`hot_set_keys`); harnesses probe those keys after the flood to
measure what survived.

The bloom-defeat crafting is honest about the threat model: the attacker
knows the *public* hash scheme (the repo's own
:class:`~repro.filters.bloom.BloomFilter` with ``salt=None``) and the
engine's flush batching, but not a defended tree's secret salt -- so the
crafted stream is identical for defended and undefended arms, and the
salt's whole value is that the same stream stops working.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import WorkloadError
from repro.filters.bloom import BloomFilter
from repro.workload.generator import KEY_STRIDE
from repro.workload.spec import Operation, OpKind

#: Default size of the cache-residency victim working set (see
#: :func:`hot_set_keys`).
HOT_SET_SLOTS = 16


def hot_set_keys(preload: int, count: int = HOT_SET_SLOTS) -> list[int]:
    """The victim working-set keys for the cache-flood attacks.

    ``count`` preloaded slots spaced evenly across ``[0, preload)`` -- far
    enough apart (with the default ``entries_per_page``) that every hot
    key lives on its own page, so "the hot set stayed resident" is a
    per-page claim the harness can measure by probing these keys and
    counting page reads.
    """
    stride = max(1, preload // count)
    return [(i * stride) * KEY_STRIDE for i in range(count)]


def _preload_ops(preload: int, value_template: str = "v{key}") -> list[Operation]:
    """Sequential inserts of slots ``0..preload-1`` (deterministic layout:
    with a memtable of ``M`` entries, flush ``i`` holds exactly slots
    ``[i*M, (i+1)*M)`` -- the knowledge the bloom-defeat crafting uses)."""
    ops = []
    for slot in range(preload):
        key = slot * KEY_STRIDE
        ops.append(
            Operation(OpKind.INSERT, key=key, value=value_template.format(key=key))
        )
    return ops


# ---------------------------------------------------------------------------
# bloom defeat
# ---------------------------------------------------------------------------
def craft_bloom_defeating_keys(
    rng: np.random.Generator,
    preload: int,
    memtable_entries: int,
    bits_per_key: float,
) -> list[int]:
    """Absent keys guaranteed to pass an *unsalted* engine's file filters.

    The attacker replays the engine's own construction offline: sequential
    preload + a ``memtable_entries`` buffer means file ``i`` holds exactly
    key slots ``[i*M, (i+1)*M)``, so its filter can be rebuilt locally
    (``salt=None`` -- the public scheme) and probed with every absent key
    inside the file's key span (non-multiples of :data:`KEY_STRIDE`, which
    also fall inside the file's fence range, so only the filter stands
    between the query and a page read).  Every key returned is a certain
    false positive against the unsalted filter; against a salted filter
    the same keys degrade to the baseline FP rate.
    """
    crafted: list[int] = []
    for start in range(0, preload, memtable_entries):
        slots = range(start, min(start + memtable_entries, preload))
        if len(slots) < 2:
            continue
        sim = BloomFilter.build([s * KEY_STRIDE for s in slots], bits_per_key)
        lo = slots[0] * KEY_STRIDE
        hi = slots[-1] * KEY_STRIDE
        candidates = [k for k in range(lo + 1, hi) if k % KEY_STRIDE]
        rng.shuffle(candidates)
        crafted.extend(k for k in candidates if sim.might_contain(k))
    return crafted


def bloom_defeat(
    seed: int = 0xBAD,
    preload: int = 4096,
    operations: int = 8192,
    memtable_entries: int = 512,
    bits_per_key: float = 10.0,
    **_: Any,
) -> list[Operation]:
    """Empty-point queries pre-computed to pass every unsalted filter.

    Degradation metric: the filter's observed FP rate
    (``lookup_probes / (lookup_probes + lookup_skips_bloom)``) -- ~1.0
    undefended, the configured FP budget under a salted tree.
    """
    rng = np.random.default_rng(seed)
    ops = _preload_ops(preload)
    crafted = craft_bloom_defeating_keys(rng, preload, memtable_entries, bits_per_key)
    if not crafted:
        raise WorkloadError(
            "bloom_defeat found no false positives to craft (preload too small?)"
        )
    for i in range(operations):
        ops.append(Operation(OpKind.EMPTY_QUERY, key=crafted[i % len(crafted)]))
    return ops


# ---------------------------------------------------------------------------
# cache floods
# ---------------------------------------------------------------------------
def _establish_hot_set(keys: list[int], rounds: int = 4) -> list[Operation]:
    """Repeated point queries that make the hot set cache-resident (and,
    on a hardened cache, frequency-credited)."""
    ops = []
    for _ in range(rounds):
        for key in keys:
            ops.append(Operation(OpKind.POINT_QUERY, key=key))
    return ops


def empty_flood(
    seed: int = 0xBAD,
    preload: int = 4096,
    operations: int = 8192,
    memtable_entries: int = 512,
    bits_per_key: float = 10.0,
    hot: int = HOT_SET_SLOTS,
    hot_every: int = 256,
    **_: Any,
) -> list[Operation]:
    """An empty-point-query storm aimed at evicting the cache's hot set.

    The flood keys are bloom-defeating (see :func:`bloom_defeat`) so each
    one forces a page read on an undefended tree; the page is cached
    purely to answer "not found", displacing the hot set.  Every
    ``hot_every``-th operation re-touches a hot key -- rarely enough that
    recency alone cannot protect the hot pages against the intervening
    flood, which is the point of the attack.  Defense: the
    negative-lookup guard drops the flood's pages on admission; the salt
    removes the page reads entirely.
    """
    rng = np.random.default_rng(seed)
    hot_keys = hot_set_keys(preload, hot)
    ops = _preload_ops(preload)
    ops.extend(_establish_hot_set(hot_keys))
    crafted = craft_bloom_defeating_keys(rng, preload, memtable_entries, bits_per_key)
    if not crafted:
        raise WorkloadError("empty_flood could not craft its bloom-defeating keys")
    hot_i = flood_i = 0
    for i in range(operations):
        if hot_every and i % hot_every == hot_every - 1:
            ops.append(Operation(OpKind.POINT_QUERY, key=hot_keys[hot_i % hot]))
            hot_i += 1
        else:
            ops.append(
                Operation(OpKind.EMPTY_QUERY, key=crafted[flood_i % len(crafted)])
            )
            flood_i += 1
    return ops


def one_hit_flood(
    seed: int = 0xBAD,
    preload: int = 4096,
    operations: int = 8192,
    hot: int = HOT_SET_SLOTS,
    hot_every: int = 32,
    **_: Any,
) -> list[Operation]:
    """A one-hit-wonder flood: each cold live key is queried exactly once.

    Every flood query is a legitimate hit on a distinct cold key, so its
    page is read and admitted -- and never touched again.  On an
    unhardened cache the flood both fills capacity and drives the
    frequency filter's halving decay until the hot set's admission credit
    is gone.  The doorkeeper defense gives first-touch keys no credit and
    no decay pressure, so the hot set stays resident.

    Note the cache works at *page* granularity: with the default
    ``entries_per_page`` a flood over a small key space revisits the same
    pages often enough to make them legitimately warm, which no frequency
    policy can (or should) reject.  Use a ``preload`` much larger than
    ``capacity * entries_per_page`` so the flood's page touches stay
    one-hit-ish -- the end-to-end defense test uses 32k keys against a
    48-page cache.
    """
    rng = np.random.default_rng(seed)
    if preload <= hot * 2:
        raise WorkloadError(f"preload ({preload}) must exceed twice the hot set ({hot})")
    hot_keys = hot_set_keys(preload, hot)
    hot_slots = {k // KEY_STRIDE for k in hot_keys}
    ops = _preload_ops(preload)
    ops.extend(_establish_hot_set(hot_keys))
    cold = np.array([s for s in range(preload) if s not in hot_slots])
    rng.shuffle(cold)
    hot_i = flood_i = 0
    for i in range(operations):
        if hot_every and i % hot_every == hot_every - 1:
            ops.append(Operation(OpKind.POINT_QUERY, key=hot_keys[hot_i % hot]))
            hot_i += 1
        else:
            slot = int(cold[flood_i % len(cold)])
            ops.append(Operation(OpKind.POINT_QUERY, key=slot * KEY_STRIDE))
            flood_i += 1
    return ops


# ---------------------------------------------------------------------------
# hot-shard write storm
# ---------------------------------------------------------------------------
def hot_shard_storm(
    seed: int = 0xBAD,
    preload: int = 4096,
    operations: int = 8192,
    storm_span: int | None = None,
    **_: Any,
) -> list[Operation]:
    """A write storm concentrated on the lowest slice of the key space.

    After a uniform preload, every storm write updates a key inside
    ``[0, storm_span)`` slots (default: the first eighth of the preload)
    -- with a range-partitioned deployment, all of it lands on one shard.
    Undefended, that shard's pipeline absorbs ~100% of the write load;
    with auto-split armed, the persistent hot window triggers a
    crash-recoverable split and the storm's range is served by two trees.
    """
    rng = np.random.default_rng(seed)
    span = storm_span or max(2, preload // 8)
    ops = _preload_ops(preload)
    slots = rng.integers(0, span, size=operations)
    for i in range(operations):
        key = int(slots[i]) * KEY_STRIDE
        ops.append(Operation(OpKind.UPDATE, key=key, value=f"storm{key}"))
    return ops


# ---------------------------------------------------------------------------
# tombstone churn
# ---------------------------------------------------------------------------
def tombstone_churn(
    seed: int = 0xBAD,
    preload: int = 4096,
    operations: int = 8192,
    **_: Any,
) -> list[Operation]:
    """Delete/insert churn that presses the FADE ``D_th`` deadline.

    Oldest-first deletes maximize every tombstone's age before its level
    compacts; the interleaved fresh inserts keep the tree growing so the
    tombstones keep riding shallow levels (the worst case for the
    paper's deadline).  Degradation metric: deadline violations and the
    oldest pending tombstone age vs ``D_th`` -- a FADE tree holds them at
    zero / bounded at extra compaction cost, a baseline tree does not.
    """
    ops = _preload_ops(preload)
    live = list(range(preload))
    next_slot = preload
    delete_i = 0
    for i in range(operations):
        if i % 2 == 0 and delete_i < len(live):
            # Oldest live slot first: its tombstone has the longest
            # remaining life to overstay.
            slot = live[delete_i]
            delete_i += 1
            ops.append(Operation(OpKind.POINT_DELETE, key=slot * KEY_STRIDE))
        else:
            key = next_slot * KEY_STRIDE
            next_slot += 1
            ops.append(Operation(OpKind.INSERT, key=key, value=f"v{key}"))
    return ops


#: name -> builder.  All builders share the (seed, preload, operations,
#: **knobs) signature and ignore unknown keyword knobs.
ADVERSARIES: dict[str, Callable[..., list[Operation]]] = {
    "bloom_defeat": bloom_defeat,
    "empty_flood": empty_flood,
    "one_hit_flood": one_hit_flood,
    "hot_shard_storm": hot_shard_storm,
    "tombstone_churn": tombstone_churn,
}


def build_adversary(
    name: str,
    seed: int = 0xBAD,
    preload: int = 4096,
    operations: int = 8192,
    **knobs: Any,
) -> list[Operation]:
    """Build the named attack stream (see :data:`ADVERSARIES`)."""
    try:
        builder = ADVERSARIES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown adversary {name!r}; known: {', '.join(sorted(ADVERSARIES))}"
        ) from None
    return builder(seed=seed, preload=preload, operations=operations, **knobs)
