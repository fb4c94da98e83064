"""Adversarial workloads and the defenses they are aimed at.

Each attack in :mod:`repro.workload.adversarial` has a matching defense,
and each pair gets both sides tested here:

* **bloom defeat vs salting** -- a crafted absent-key stream saturates an
  unsalted filter by construction (FPR 1.0) but probes a *salted* filter
  as if it were random noise, so its FPR stays at the design rate;
* **one-hit flood vs the doorkeeper** -- a stream of never-repeated pages
  washes an unhardened cache's working set out; the hardened cache keeps
  the hot set resident because one-hit wonders earn no admission credit;
* **empty-point flood vs the negative guard** -- pages admitted only to
  answer a bloom false positive are dropped again in hardened mode;
* **write storm vs auto-split** -- the controller fires on a persistently
  hot shard but never on alternating hot spots (hysteresis) and not
  again inside the cooldown;
* **salt persistence** -- the salt is a durable secret: it must survive a
  close/reopen bit-exact, and the doctor must verify it is on disk.

Most tests pin the mechanisms at unit scale so a regression names the
broken part; :func:`test_defense_beats_undefended_arm` closes the loop
end to end, replaying each full attack against a defended and an
undefended engine.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import TINY, make_acheron
from repro.config import CompactionStyle, acheron_config
from repro.core.engine import AcheronEngine
from repro.errors import WorkloadError
from repro.filters.bloom import BloomFilter, generate_salt
from repro.shard import ShardedEngine
from repro.shard.autosplit import AutoSplitConfig, AutoSplitController
from repro.storage.cache import BlockCache
from repro.workload.adversarial import (
    ADVERSARIES,
    build_adversary,
    craft_bloom_defeating_keys,
    hot_set_keys,
)
from repro.workload.generator import KEY_STRIDE
from repro.workload.runner import run_workload
from repro.workload.spec import OpKind


SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# salted blooms vs crafted key streams
# ---------------------------------------------------------------------------
class TestSaltedBloomFPR:
    @given(seed=st.integers(0, 2**32 - 1), nkeys=st.integers(128, 512))
    @SETTINGS
    def test_crafted_stream_fpr_bounded_under_salt(self, seed, nkeys):
        """Keys crafted to saturate an unsalted filter (FPR 1.0 by
        construction) must probe a salted twin at the design false-positive
        rate (~0.8% at 10 bits/key; we allow 8% for small samples)."""
        rng = random.Random(seed)
        keys = [i * KEY_STRIDE for i in range(nkeys)]
        unsalted = BloomFilter.build(keys, 10.0)
        # An attacker is not confined to the stored key range: any absent
        # key that false-positives the replicated filter will do, so draw
        # from a wide pool until 100 distinct hits are found.
        crafted: set[int] = set()
        for _ in range(200_000):
            if len(crafted) == 100:
                break
            candidate = rng.randrange(1, nkeys * KEY_STRIDE * 1000)
            if candidate % KEY_STRIDE and unsalted.might_contain(candidate):
                crafted.add(candidate)
        assert len(crafted) == 100, "filter too sparse to craft against"
        # By construction every crafted key false-positives unsalted.
        assert all(unsalted.might_contain(k) for k in crafted)
        salted = BloomFilter.build(keys, 10.0, salt=generate_salt())
        fp = sum(1 for k in crafted if salted.might_contain(k))
        assert fp / len(crafted) <= 0.08

    def test_crafter_defeats_chunked_filters(self):
        """The attack generator's per-memtable-chunk simulation crafts
        keys that pass the unsalted per-chunk filters it rebuilt."""
        rng = random.Random(7)
        crafted = craft_bloom_defeating_keys(
            rng, preload=1024, memtable_entries=256, bits_per_key=10.0
        )
        assert crafted, "no keys crafted"
        # Replay the attacker's own simulation: every crafted key must
        # false-positive at least one chunk filter.
        chunks = [range(lo, lo + 256) for lo in range(0, 1024, 256)]
        sims = [
            BloomFilter.build([s * KEY_STRIDE for s in chunk], 10.0)
            for chunk in chunks
        ]
        for key in crafted[:50]:
            assert key % KEY_STRIDE != 0  # absent by construction
            assert any(sim.might_contain(key) for sim in sims)

    def test_salt_never_probes_bloom_pair_path(self):
        """Salted filters must not share hash state with unsalted ones."""
        keys = list(range(0, 512, 4))
        salted = BloomFilter.build(keys, 10.0, salt=b"\x01" * 16)
        resalted = BloomFilter.build(keys, 10.0, salt=b"\x02" * 16)
        # Different salts set different bit patterns for the same keys.
        assert salted.might_contain(keys[0]) and resalted.might_contain(keys[0])
        assert bytes(salted._bits) != bytes(resalted._bits)


# ---------------------------------------------------------------------------
# cache-admission hardening vs floods
# ---------------------------------------------------------------------------
def _establish_hot(cache: BlockCache, hot: int) -> None:
    """Install ``hot`` pages and touch them twice (admission credit)."""
    for i in range(hot):
        cache.get("hot", i)
        cache.put("hot", i, f"page{i}")
    for i in range(hot):
        assert cache.get("hot", i) is not None


def _flood_hit_rate(cache: BlockCache, hot: int, flood: int) -> float:
    """One-hit flood with a periodic hot probe; returns hot hit rate."""
    hits = probes = 0
    for k in range(flood):
        cache.get("flood", k)
        cache.put("flood", k, f"flood{k}")
        if k % 10 == 9:
            probes += 1
            hits += cache.get("hot", k % hot) is not None
    return hits / probes


class TestHardenedAdmission:
    def test_hot_set_survives_one_hit_flood(self):
        hardened = BlockCache(32, hardened=True)
        _establish_hot(hardened, 8)
        assert _flood_hit_rate(hardened, hot=8, flood=2000) >= 0.9
        assert hardened.doorkeeper_rejections > 0

    def test_unhardened_cache_is_washed_out(self):
        """The control: without the doorkeeper the same flood evicts the
        hot set (this is the attack the defense exists for)."""
        plain = BlockCache(32, hardened=False)
        _establish_hot(plain, 8)
        assert _flood_hit_rate(plain, hot=8, flood=2000) <= 0.5
        assert plain.doorkeeper_rejections == 0

    def test_negative_guard_drops_fp_pages(self):
        cache = BlockCache(16, hardened=True)
        cache.put("f", 3, "page")
        assert cache.note_negative("f", 3) is True
        assert cache.get("f", 3) is None  # dropped
        assert cache.negative_guard_drops == 1

    def test_negative_guard_spares_pinned_and_noops_unhardened(self):
        cache = BlockCache(16, hardened=True)
        cache.put("f", 1, "page", pinned=True)
        assert cache.note_negative("f", 1) is False
        assert cache.get("f", 1) is not None
        plain = BlockCache(16, hardened=False)
        plain.put("f", 2, "page")
        assert plain.note_negative("f", 2) is False
        assert plain.get("f", 2) is not None
        assert plain.negative_guard_drops == 0


class TestNegativeGuardOnReadPath:
    """The guard must fire wherever a lookup admits a page: the serial
    descent and the concurrent write path's copy of it."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_engine_drops_pages_admitted_for_bloom_false_positives(self, workers):
        config = acheron_config(
            delete_persistence_threshold=100_000,
            pages_per_tile=1,
            cache_pages=4096,  # never full: admission always succeeds
            cache_hardened=True,
            **TINY,
        )
        engine = AcheronEngine(config, workers=workers)
        try:
            for k in range(0, 6_000, 2):
                engine.put(k, f"v{k}")
            engine.flush()
            cache = engine.tree.cache
            assert len(cache) == 0
            reads_before = engine.tree.disk.stats.pages_read
            for k in range(1, 6_000, 2):  # absent keys inside every fence
                assert engine.get(k) is None
            # Some probes were bloom false positives and read a page ...
            assert engine.tree.disk.stats.pages_read > reads_before
            # ... and every such page below pinned level 1 was dropped again.
            assert cache.negative_guard_drops > 0
            assert len(cache) == cache.pinned_count
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# auto-split hysteresis and cooldown
# ---------------------------------------------------------------------------
def _hot_window(ctl: AutoSplitController, shard: int, ops: int) -> int | None:
    """Route one whole window of writes at ``shard``; return the verdict."""
    boundary = False
    for _ in range(ops):
        boundary = ctl.note_writes(shard)
    assert boundary
    return ctl.evaluate()


class TestAutoSplitHysteresis:
    CFG = AutoSplitConfig(
        window_ops=64, min_window_ops=16, hysteresis=3, cooldown_ops=256
    )

    def test_alternating_hot_shards_never_split(self):
        """Ping-ponging hot spots reset the streak on every flip: no
        oscillating split/merge storms, ever."""
        ctl = AutoSplitController(self.CFG)
        for window in range(40):
            assert _hot_window(ctl, window % 2, 64) is None
        assert ctl.events == []

    def test_persistent_hot_shard_splits_after_hysteresis(self):
        ctl = AutoSplitController(self.CFG)
        assert _hot_window(ctl, 1, 64) is None
        assert _hot_window(ctl, 1, 64) is None
        assert _hot_window(ctl, 1, 64) == 1

    def test_cooldown_blocks_refire(self):
        ctl = AutoSplitController(self.CFG)
        for _ in range(2):
            _hot_window(ctl, 0, 64)
        assert _hot_window(ctl, 0, 64) == 0
        ctl.record_split(0, tick=100)
        # Cooldown (256 ops = 4 windows) holds even under a persistent
        # storm; the streak keeps building underneath, so the storm may
        # refire at the first boundary after expiry -- but not before.
        fired = [_hot_window(ctl, 0, 64) for _ in range(3)]
        assert fired == [None, None, None]
        assert _hot_window(ctl, 0, 64) == 0

    def test_refusal_also_cools_down(self):
        ctl = AutoSplitController(self.CFG)
        for _ in range(3):
            _hot_window(ctl, 2, 64)
        ctl.record_refusal(2, tick=50, reason="single-key shard")
        assert ctl.cooldown_remaining == self.CFG.cooldown_ops
        assert [e["event"] for e in ctl.events] == ["refused"]


# ---------------------------------------------------------------------------
# salt durability
# ---------------------------------------------------------------------------
class TestSaltPersistence:
    def test_salt_round_trips_across_reopen(self, tmp_path):
        from repro.core.engine import AcheronEngine

        directory = str(tmp_path / "store")
        engine = AcheronEngine.acheron(
            directory=directory,
            bloom_salted=True,
            memtable_entries=64,
            entries_per_page=8,
        )
        for k in range(200):
            engine.put(k * 4, f"v{k}")
        salt = engine.tree.bloom_salt
        assert salt is not None and len(salt) >= 8
        engine.close()

        reopened = AcheronEngine.acheron(
            directory=directory,
            bloom_salted=True,
            memtable_entries=64,
            entries_per_page=8,
        )
        assert reopened.tree.bloom_salt == salt
        # Recovered filters answer through the persisted salt: present
        # keys hit, absent keys (non-stride) are overwhelmingly pruned.
        assert reopened.get(4) == "v1"
        assert reopened.get(5, default=None) is None
        reopened.close()

    def test_doctor_verifies_persisted_salt(self, tmp_path):
        from repro.core.engine import AcheronEngine
        from repro.tools.doctor import diagnose_store

        directory = str(tmp_path / "store")
        engine = AcheronEngine.acheron(
            directory=directory,
            bloom_salted=True,
            memtable_entries=64,
            entries_per_page=8,
        )
        for k in range(100):
            engine.put(k, f"v{k}")
        engine.close()
        report = diagnose_store(directory)
        assert report.healthy
        assert any("bloom salt persisted" in c for c in report.checks_passed)

    def test_unsalted_store_stays_byte_compatible(self, tmp_path):
        """Default (unsalted) manifests must not carry the salt key."""
        from repro.core.engine import AcheronEngine
        from repro.storage.filestore import FileStore

        directory = str(tmp_path / "store")
        engine = AcheronEngine.acheron(
            directory=directory, memtable_entries=64, entries_per_page=8
        )
        for k in range(100):
            engine.put(k, f"v{k}")
        engine.close()
        manifest = FileStore(directory).read_manifest()
        assert "bloom_salt" not in manifest


# ---------------------------------------------------------------------------
# attack stream generators
# ---------------------------------------------------------------------------
class TestAdversaryStreams:
    def test_unknown_adversary_raises(self):
        with pytest.raises(WorkloadError):
            build_adversary("meltdown")

    @pytest.mark.parametrize("name", sorted(ADVERSARIES))
    def test_streams_are_seeded_and_shaped(self, name):
        ops = build_adversary(name, seed=11, preload=512, operations=400)
        again = build_adversary(name, seed=11, preload=512, operations=400)
        assert [(o.kind, o.key) for o in ops] == [
            (o.kind, o.key) for o in again
        ], "same seed must reproduce the stream"
        assert all(o.kind == OpKind.INSERT for o in ops[:512])
        assert len(ops) >= 512 + 400

    def test_hot_set_keys_span_distinct_pages(self):
        keys = hot_set_keys(4096)
        slots = [k // KEY_STRIDE for k in keys]
        # Evenly spread: no two hot keys within one 64-entry page.
        assert len(keys) == len(set(s // 64 for s in slots))

    def test_bloom_defeat_queries_are_absent_keys(self):
        ops = build_adversary(
            "bloom_defeat", seed=3, preload=512, operations=200,
            memtable_entries=128,
        )
        attack = ops[512:]
        assert all(o.kind == OpKind.EMPTY_QUERY for o in attack)
        assert all(o.key % KEY_STRIDE != 0 for o in attack)


# ---------------------------------------------------------------------------
# stats plumbing round-trip
# ---------------------------------------------------------------------------
class TestHardenedStatsRoundTrip:
    def test_new_counters_survive_json(self):
        engine = make_acheron(cache_pages=16, cache_hardened=True)
        for k in range(300):
            engine.put(k, f"v{k}")
        for k in range(300):
            engine.get(k)
        stats = engine.stats()
        payload = json.loads(json.dumps(stats.to_dict()))
        cache = payload["cache"]
        assert cache["hardened"] is True
        assert cache["doorkeeper_rejections"] >= 0
        assert cache["negative_guard_drops"] >= 0
        assert cache == engine.tree.cache.stats()

    def test_counters_present_and_zero_when_unhardened(self):
        engine = make_acheron(cache_pages=16)
        for k in range(100):
            engine.put(k, f"v{k}")
        cache = engine.tree.cache.stats()
        assert cache["hardened"] is False
        assert cache["doorkeeper_rejections"] == 0
        assert cache["negative_guard_drops"] == 0


# ---------------------------------------------------------------------------
# end to end: each defense beats its undefended arm under the full attack
# ---------------------------------------------------------------------------
def _bloom_defeat_fpr(salted: bool) -> float:
    engine = AcheronEngine.acheron(
        memtable_entries=512, size_ratio=16, policy=CompactionStyle.TIERING,
        bloom_salted=salted,
    )
    ops = build_adversary(
        "bloom_defeat", seed=3, preload=4096, operations=4000,
        memtable_entries=512, bits_per_key=engine.config.bloom_bits_per_key,
    )
    run_workload(engine, ops)
    levels = engine.tree.read_stats()["levels"]
    probes = sum(r["lookup_probes"] for r in levels)
    skips = sum(r["lookup_skips_bloom"] for r in levels)
    engine.close()
    return probes / (probes + skips)


def _hot_residency(
    attack: str, preload: int, hot_every: int, cache_pages: int, page_filters: bool = True
):
    def run(hardened: bool) -> float:
        engine = AcheronEngine.acheron(
            memtable_entries=256, cache_pages=cache_pages, cache_hardened=hardened,
            kiwi_page_filters=page_filters,
        )
        run_workload(engine, build_adversary(
            attack, seed=3, preload=preload, operations=7000,
            memtable_entries=256, hot=16, hot_every=hot_every,
        ))
        hot = hot_set_keys(preload, 16)
        before = engine.disk.stats.pages_read
        for key in hot:
            engine.get(key)
        residency = 1.0 - (engine.disk.stats.pages_read - before) / len(hot)
        engine.close()
        return residency

    return run


def _storm_write_share(auto_split: bool) -> float:
    ops = build_adversary("hot_shard_storm", seed=5, preload=4096, operations=12000)
    engine = ShardedEngine(
        config=acheron_config(memtable_entries=256),
        shards=4,
        key_space=(0, 4096 * KEY_STRIDE),
        auto_split=AutoSplitConfig(window_ops=1024, hysteresis=3, cooldown_ops=4096)
        if auto_split else None,
    )
    run_workload(engine, ops)
    per_shard: dict[int, int] = {}
    for op in ops[4096:]:
        idx = engine.partition_map.shard_for(op.key)
        per_shard[idx] = per_shard.get(idx, 0) + 1
    engine.close()
    return max(per_shard.values()) / (len(ops) - 4096)


def _oldest_tombstone_age(fade: bool) -> int:
    engine = (
        AcheronEngine.acheron(delete_persistence_threshold=2000, memtable_entries=256)
        if fade else AcheronEngine.baseline(memtable_entries=256)
    )
    run_workload(engine, build_adversary(
        "tombstone_churn", seed=5, preload=4096, operations=8000
    ))
    report = engine.compliance_report()
    engine.close()
    age = report["oldest_pending_age"] or 0
    if fade:
        assert report["deadline_violations"] == 0 and age <= 2000
    return age


#: attack -> (metric of one arm given "defended?", lower is better, gain
#: measured at this shape).  Each defense must beat its undefended arm by
#: at least half the measured gain; the bloom salt is random per tree, so
#: the FPR row is the one with real run-to-run spread.
DEFENSES = {
    "bloom_defeat": (_bloom_defeat_fpr, True, 1.0 - 0.02),
    # KiWi page filters alone absorb the empty flood (see
    # test_page_filters_absorb_empty_flood), so the guard is measured on
    # the unfiltered weave, where bloom false positives reach the cache.
    "empty_flood": (
        _hot_residency("empty_flood", 8192, 512, 32, page_filters=False), False, 1.0 - 0.25
    ),
    "one_hit_flood": (_hot_residency("one_hit_flood", 32768, 32, 48), False, 0.63 - 0.31),
    "hot_shard_storm": (_storm_write_share, True, 1.0 - 0.50),
    "tombstone_churn": (_oldest_tombstone_age, True, 2880 - 64),
}


@pytest.mark.usefixtures("serial_write_path")  # residency and ages are schedule-exact
@pytest.mark.parametrize("attack", sorted(DEFENSES))
def test_defense_beats_undefended_arm(attack):
    metric, lower_is_better, measured_gain = DEFENSES[attack]
    undefended, defended = metric(False), metric(True)
    gain = undefended - defended if lower_is_better else defended - undefended
    assert gain >= measured_gain / 2, (attack, undefended, defended)


@pytest.mark.usefixtures("serial_write_path")
def test_page_filters_absorb_empty_flood():
    # With the default tile filters an all-miss flood admits no pages, so
    # the hot set stays resident even without the hardened cache.
    residency = _hot_residency("empty_flood", 8192, 512, 32)
    assert residency(False) == residency(True) == 1.0
