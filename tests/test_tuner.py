"""The self-tuning compaction policy governor: cost model, hysteresis, switches.

Four contracts, mirroring DESIGN.md ("Self-tuning compaction"):

* **cost-model direction** -- the closed-form page-I/O model orders the
  policies the way the LSM design space does: write-heavy mixes price
  tiering cheapest, read/scan-heavy mixes price leveling cheapest, and
  lazy leveling sits between on both axes;
* **hysteresis** -- a challenger policy must win ``hysteresis``
  *consecutive* windows by at least ``min_advantage`` before a switch
  fires, a fresh switch is followed by ``cooldown_windows`` of silence,
  and an oscillating workload therefore never flips policy at all;
* **identity** -- the tuner is off by default (no stats section, no
  counters), refuses read-only engines, and a tuned engine's *contents*
  are identical to a static one's over the same stream (the tuner moves
  compaction work, never data); a mid-workload live switch yields the
  same logical contents as a fresh tree opened with the final policy,
  across worker counts, shard counts, and eager/lazy range deletes;
* **durability** -- per-shard policies (explicit overrides and tuner
  switches alike) survive close/reopen via the root manifest, splits
  inherit the parent's policy, and FADE's ``D_th`` compliance holds
  across every live switch.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CompactionStyle, acheron_config, baseline_config
from repro.errors import ConfigError
from repro.lsm.compaction.tuner import (
    POLICIES,
    CompactionTuner,
    PolicyCostModel,
    PolicyTunerConfig,
)
from repro.shard import POLICY_TUNER_ENV, ShardedEngine


@pytest.fixture(autouse=True)
def _no_ambient_tuner(monkeypatch):
    """These tests pin arming explicitly; strip the CI job's ambient
    ``REPRO_POLICY_TUNER`` so default-off assertions test the *default*."""
    monkeypatch.delenv(POLICY_TUNER_ENV, raising=False)


def make_sharded(shards=2, tuner=None, policies=None, **overrides):
    scale = {
        "memtable_entries": 64,
        "entries_per_page": 8,
        "size_ratio": 3,
        "cache_pages": 8,
    }
    scale.update(overrides)
    return ShardedEngine(
        baseline_config(**scale),
        shards=shards,
        key_space=(0, 4096),
        policy_tuner=tuner,
        shard_policies=policies,
    )


# ---------------------------------------------------------------------------
# config + cost-model basics
# ---------------------------------------------------------------------------
class TestTunerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_ops": 0},
            {"min_window_ops": -1},
            {"hysteresis": 0},
            {"cooldown_windows": -1},
            {"min_advantage": -0.1},
            {"read_probe_factor": -1.0},
            {"scan_page_span": 0.0},
            {"delete_drain_weight": -0.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PolicyTunerConfig(**kwargs)

    def test_defaults_valid(self):
        PolicyTunerConfig()  # does not raise


class TestPolicyCostModel:
    def setup_method(self):
        self.model = PolicyCostModel(PolicyTunerConfig())

    def test_write_amplification_ordering(self):
        # Per flushed entry: leveling rewrites each level ~T/2 times,
        # tiering once, lazy leveling once everywhere but the last level.
        amps = {
            p: PolicyCostModel.write_amplification(p, depth=4, size_ratio=4)
            for p in POLICIES
        }
        assert amps[CompactionStyle.TIERING] < amps[CompactionStyle.LAZY_LEVELING]
        assert amps[CompactionStyle.LAZY_LEVELING] < amps[CompactionStyle.LEVELING]

    def test_expected_runs_ordering(self):
        # Sorted-run count (the read/scan fan-in) orders the other way.
        runs = {
            p: PolicyCostModel.expected_runs(p, depth=4, size_ratio=4)
            for p in POLICIES
        }
        assert runs[CompactionStyle.LEVELING] < runs[CompactionStyle.LAZY_LEVELING]
        assert runs[CompactionStyle.LAZY_LEVELING] < runs[CompactionStyle.TIERING]

    def test_write_heavy_mix_prices_tiering_cheapest(self):
        counts = {"write": 10_000, "delete": 500, "read": 100, "scan": 0}
        costs = self.model.costs(counts, depth=4, size_ratio=4, entries_per_page=8)
        assert min(costs, key=costs.get) is CompactionStyle.TIERING

    def test_read_heavy_mix_prices_leveling_cheapest(self):
        counts = {"write": 100, "delete": 0, "read": 10_000, "scan": 0}
        costs = self.model.costs(counts, depth=4, size_ratio=4, entries_per_page=8)
        assert min(costs, key=costs.get) is CompactionStyle.LEVELING

    def test_scan_heavy_mix_prices_leveling_cheapest(self):
        counts = {"write": 100, "delete": 0, "read": 0, "scan": 2_000}
        costs = self.model.costs(counts, depth=4, size_ratio=4, entries_per_page=8)
        assert min(costs, key=costs.get) is CompactionStyle.LEVELING

    def test_empty_window_costs_zero(self):
        counts = {"write": 0, "delete": 0, "read": 0, "scan": 0}
        costs = self.model.costs(counts, depth=3, size_ratio=4, entries_per_page=8)
        assert all(c == 0.0 for c in costs.values())


# ---------------------------------------------------------------------------
# hysteresis: the no-oscillation contract (unit-level)
# ---------------------------------------------------------------------------
READ_HEAVY = {"read": 900, "write": 50, "delete": 0, "scan": 0}
WRITE_HEAVY = {"write": 900, "read": 50, "delete": 0, "scan": 0}


def run_window(tuner, counts, policy, tick=0):
    """Feed one window of ops for shard 0 and force an evaluation."""
    for kind, n in counts.items():
        if n:
            tuner.note_ops(0, kind, n)
    signals = {
        0: {"policy": policy, "depth": 4, "size_ratio": 4, "entries_per_page": 8}
    }
    return tuner.evaluate(signals, tick=tick)


class TestHysteresis:
    def make(self, **overrides):
        kwargs = dict(
            window_ops=64, min_window_ops=0, hysteresis=2, cooldown_windows=0
        )
        kwargs.update(overrides)
        return CompactionTuner(PolicyTunerConfig(**kwargs))

    def test_no_switch_before_hysteresis_wins(self):
        tuner = self.make(hysteresis=3)
        assert run_window(tuner, READ_HEAVY, CompactionStyle.TIERING) == []
        assert run_window(tuner, READ_HEAVY, CompactionStyle.TIERING) == []
        decisions = run_window(tuner, READ_HEAVY, CompactionStyle.TIERING)
        assert decisions == [{"shard": 0, "policy": CompactionStyle.LEVELING}]
        assert tuner.switch_count == 1

    def test_interrupted_streak_resets(self):
        tuner = self.make(hysteresis=2)
        assert run_window(tuner, READ_HEAVY, CompactionStyle.TIERING) == []
        # One write-heavy window: the challenger's streak dies with it.
        assert run_window(tuner, WRITE_HEAVY, CompactionStyle.TIERING) == []
        assert run_window(tuner, READ_HEAVY, CompactionStyle.TIERING) == []
        assert run_window(tuner, READ_HEAVY, CompactionStyle.TIERING) != []

    def test_oscillating_mix_never_switches(self):
        tuner = self.make(hysteresis=2)
        for i in range(20):
            counts = READ_HEAVY if i % 2 == 0 else WRITE_HEAVY
            assert run_window(tuner, counts, CompactionStyle.TIERING, tick=i) == []
        assert tuner.switch_count == 0

    def test_cooldown_blocks_the_rebound(self):
        tuner = self.make(hysteresis=1, cooldown_windows=2)
        assert run_window(tuner, READ_HEAVY, CompactionStyle.TIERING) != []
        # The workload flips back immediately: two windows of silence.
        assert run_window(tuner, WRITE_HEAVY, CompactionStyle.LEVELING) == []
        assert run_window(tuner, WRITE_HEAVY, CompactionStyle.LEVELING) == []
        assert run_window(tuner, WRITE_HEAVY, CompactionStyle.LEVELING) != []
        assert tuner.switch_count == 2

    def test_marginal_advantage_does_not_switch(self):
        tuner = self.make(hysteresis=1, min_advantage=0.99)
        for _ in range(5):
            assert run_window(tuner, READ_HEAVY, CompactionStyle.TIERING) == []
        assert tuner.switch_count == 0

    def test_below_min_window_ops_no_evaluation(self):
        tuner = self.make(min_window_ops=10_000)
        assert run_window(tuner, READ_HEAVY, CompactionStyle.TIERING) == []
        assert tuner.windows_evaluated == 0

    def test_incumbent_wins_ties(self):
        # At depth 1 a pure-read mix prices leveling and lazy leveling
        # identically (one sorted run either way): the incumbent must
        # keep the tie, whichever of the two it is.
        for incumbent in (CompactionStyle.LEVELING, CompactionStyle.LAZY_LEVELING):
            tuner = self.make(hysteresis=1)
            reads = {"read": 1_000, "write": 0, "delete": 0, "scan": 0}
            for _ in range(3):
                signals = {
                    0: {
                        "policy": incumbent,
                        "depth": 1,
                        "size_ratio": 4,
                        "entries_per_page": 8,
                    }
                }
                for kind, n in reads.items():
                    if n:
                        tuner.note_ops(0, kind, n)
                assert tuner.evaluate(signals) == []
            assert tuner.switch_count == 0


# ---------------------------------------------------------------------------
# engine integration: identity, overrides, durability
# ---------------------------------------------------------------------------
def drifting_stream(n, seed=11):
    """Writes early, reads late: the mix the tuner is built to follow."""
    rng = Random(seed)
    ops = []
    for i in range(n):
        if i < n // 2 or rng.random() < 0.1:
            ops.append(("put", rng.randrange(4096), f"v{i}"))
        else:
            ops.append(("get", rng.randrange(4096), None))
    return ops


class TestTunedEngine:
    def test_tuner_off_by_default_and_stats_empty(self):
        engine = make_sharded()
        try:
            engine.put(1, "a")
            stats = engine.stats()
            assert stats.policy is None
            assert stats.to_dict()["policy"] == {}
            assert "policy_switches" not in stats.counters
        finally:
            engine.close()

    def test_env_var_arms_default_tuner(self, monkeypatch, tmp_path):
        monkeypatch.setenv(POLICY_TUNER_ENV, "1")
        engine = make_sharded()
        try:
            engine.put(1, "a")
            assert engine.stats().policy is not None
        finally:
            engine.close()
        # Explicit False pins a store static regardless of the ambient.
        engine = make_sharded(tuner=False)
        try:
            assert engine.stats().policy is None
        finally:
            engine.close()
        # The ambient never applies to (and never breaks) read-only opens.
        root = str(tmp_path / "store")
        writer = ShardedEngine(
            baseline_config(memtable_entries=64, entries_per_page=8),
            directory=root,
            shards=2,
            key_space=(0, 4096),
        )
        writer.put(1, "a")
        writer.close()
        reader = ShardedEngine(None, directory=root, read_only=True)
        try:
            assert reader.stats().policy is None
        finally:
            reader.close()

    def test_requires_writable_engine(self, tmp_path):
        root = str(tmp_path / "store")
        engine = ShardedEngine(
            baseline_config(memtable_entries=64, entries_per_page=8),
            directory=root,
            shards=2,
            key_space=(0, 4096),
        )
        engine.put(1, "a")
        engine.close()
        with pytest.raises(ConfigError):
            ShardedEngine(None, directory=root, read_only=True, policy_tuner=True)

    def test_tuned_contents_identical_to_static(self):
        ops = drifting_stream(4_000)
        contents = {}
        switches = {}
        for arm, tuner in (
            ("static", None),
            (
                "tuned",
                PolicyTunerConfig(
                    window_ops=128, min_window_ops=16, hysteresis=2,
                    cooldown_windows=1,
                ),
            ),
        ):
            engine = make_sharded(tuner=tuner, policy=CompactionStyle.TIERING)
            try:
                for op, key, value in ops:
                    if op == "put":
                        engine.put(key, value)
                    else:
                        engine.get(key)
                engine.write_barrier()
                contents[arm] = list(engine.scan(0, 4096))
                switches[arm] = sum(
                    r["policy_switches"] for r in engine.stats().shards
                )
                engine.verify_invariants()
            finally:
                engine.close()
        assert contents["tuned"] == contents["static"]
        assert switches["static"] == 0
        # The read-heavy back half must have pulled at least one shard
        # off tiering; the identity above proves it moved no data.
        assert switches["tuned"] > 0

    @pytest.mark.usefixtures("serial_write_path")  # modeled I/O is schedule-exact
    def test_tuned_beats_every_static_policy_on_drift(self):
        """One seeded stream drifts across thirds -- write-heavy (tiering
        wins), scan-heavy (leveling wins: a scan merges every run it
        overlaps), delete-heavy (tiering again) -- so no static policy
        is right throughout.  The tuned arm, starting at leveling, must
        spend less total modeled device time than *every* static arm,
        stay within 15 % of the best static arm in each third (it adapts
        with a hysteresis lag), and switch at least once; all four arms
        end with identical contents."""
        rng = Random(13)
        written = []

        def put_op(version):
            key = rng.randrange(4096)
            written.append(key)
            return ("put", key, f"v{version}")

        def pick():
            return written[rng.randrange(len(written))]

        thirds, version = [[], [], []], 0
        for _ in range(2_000):
            if written and rng.random() < 0.10:
                thirds[0].append(("delete", pick()))
            else:
                version += 1
                thirds[0].append(put_op(version))
        for _ in range(2_000):
            roll = rng.random()
            if roll < 0.10:
                version += 1
                thirds[1].append(put_op(version))
            elif roll < 0.65:
                thirds[1].append(("scan", rng.randrange(4096 - 128)))
            else:
                thirds[1].append(("get", pick()))
        for _ in range(2_000):
            roll = rng.random()
            if roll < 0.45:
                version += 1
                thirds[2].append(put_op(version))
            elif roll < 0.95:
                thirds[2].append(("delete", pick()))
            else:
                thirds[2].append(("get", pick()))

        tuner = PolicyTunerConfig(
            window_ops=64, min_window_ops=16, hysteresis=2, cooldown_windows=2
        )
        arms = {}
        for arm, policy, arm_tuner in (
            ("leveling", CompactionStyle.LEVELING, False),
            ("tiering", CompactionStyle.TIERING, False),
            ("lazy_leveling", CompactionStyle.LAZY_LEVELING, False),
            ("tuned", CompactionStyle.LEVELING, tuner),
        ):
            engine = make_sharded(
                tuner=arm_tuner, policy=policy, memtable_entries=32,
                size_ratio=6, cache_pages=4,
            )
            try:
                io = engine.disk.stats
                per_third = []
                for script in thirds:
                    before = io.modeled_us
                    for op in script:
                        if op[0] == "put":
                            engine.put(op[1], op[2])
                        elif op[0] == "delete":
                            engine.delete(op[1])
                        elif op[0] == "get":
                            engine.get(op[1])
                        else:
                            for _ in engine.scan(op[1], op[1] + 128):
                                pass
                    per_third.append(io.modeled_us - before)
                engine.write_barrier()
                switches = sum(r["policy_switches"] for r in engine.stats().shards)
                arms[arm] = (
                    io.modeled_us, per_third, switches, list(engine.scan(0, 4096))
                )
            finally:
                engine.close()
        tuned_us, tuned_thirds, tuned_switches, tuned_rows = arms.pop("tuned")
        # Measured at this shape: 1.20x under the best static arm
        # (lazy_leveling), six switches.
        assert tuned_switches >= 1
        for static_us, _, switches, rows in arms.values():
            assert rows == tuned_rows
            assert switches == 0
            assert tuned_us < static_us
        for i in range(3):
            best = min(static[1][i] for static in arms.values())
            assert tuned_thirds[i] <= best * 1.15

    def test_tuned_stats_section_and_events(self):
        tuner = PolicyTunerConfig(
            window_ops=128, min_window_ops=16, hysteresis=2, cooldown_windows=1
        )
        engine = make_sharded(tuner=tuner, policy=CompactionStyle.TIERING)
        try:
            for op, key, value in drifting_stream(4_000):
                if op == "put":
                    engine.put(key, value)
                else:
                    engine.get(key)
            stats = engine.stats()
            assert stats.policy is not None
            assert stats.policy["windows_evaluated"] > 0
            assert stats.policy["switches"] == stats.counters["policy_switches"]
            assert stats.policy["switches"] > 0
            events = engine.policy_events
            assert any(e["event"] == "switch" for e in events)
            # Stats rows mirror the live trees.
            for row, shard in zip(stats.shards, engine.shards):
                assert row["policy"] == shard.tree.config.policy.value
        finally:
            engine.close()

    def test_per_shard_overrides_without_tuner(self):
        engine = make_sharded(shards=4, policies={1: "tiering", 3: "lazy_leveling"})
        try:
            got = [s.tree.config.policy for s in engine.shards]
            assert got == [
                CompactionStyle.LEVELING,
                CompactionStyle.TIERING,
                CompactionStyle.LEVELING,
                CompactionStyle.LAZY_LEVELING,
            ]
            assert engine.stats().policy is None  # overrides arm no tuner
        finally:
            engine.close()

    def test_invalid_override_rejected(self):
        with pytest.raises(ConfigError):
            make_sharded(policies={0: "compactions_maybe"})
        with pytest.raises(ConfigError):
            make_sharded(shards=2, policies={7: "tiering"})

    def test_shard_policies_survive_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        config = baseline_config(memtable_entries=64, entries_per_page=8)
        engine = ShardedEngine(
            config,
            directory=root,
            shards=2,
            key_space=(0, 4096),
            shard_policies={0: "tiering"},
        )
        for i in range(200):
            engine.put(i * 16, f"v{i}")
        assert engine.set_shard_policy(1, "lazy_leveling") is True
        engine.close()
        reopened = ShardedEngine(None, directory=root)
        try:
            assert [s.tree.config.policy for s in reopened.shards] == [
                CompactionStyle.TIERING,
                CompactionStyle.LAZY_LEVELING,
            ]
            assert dict(reopened.scan(0, 4096)) == {
                i * 16: f"v{i}" for i in range(200)
            }
        finally:
            reopened.close()

    def test_split_inherits_parent_policy(self):
        engine = make_sharded(shards=2, policies={0: "tiering"})
        try:
            for i in range(400):
                engine.put(i, f"v{i}")  # load shard 0's half of the space
            engine.split_shard(0)
            assert [s.tree.config.policy for s in engine.shards] == [
                CompactionStyle.TIERING,
                CompactionStyle.TIERING,
                CompactionStyle.LEVELING,
            ]
            assert engine.shard_policies == [
                CompactionStyle.TIERING,
                CompactionStyle.TIERING,
                CompactionStyle.LEVELING,
            ]
        finally:
            engine.close()

    def test_dth_compliance_across_live_switch(self):
        engine = make_sharded(shards=2, policy=CompactionStyle.TIERING)
        try:
            for i in range(600):
                engine.put(i * 4, f"v{i}")
            for i in range(0, 600, 3):
                engine.delete(i * 4)
            assert engine.set_policy(CompactionStyle.LEVELING) == 2
            for shard in engine.shards:
                # The drain consolidated every level to a single run.
                for level in shard.tree.iter_levels():
                    assert len(level.runs) <= 1
            engine.compact_all()
            stats = engine.persistence_stats()
            assert stats.violations == 0
            engine.verify_invariants()
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# the equivalence property: a live switch is invisible to contents
# ---------------------------------------------------------------------------
class TestSwitchEquivalence:
    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=120),
        st.integers(0, 250),
        st.integers(0, 250),
        st.sampled_from([1, 4]),
        st.sampled_from([1, 4]),
        st.sampled_from(["eager", "lazy"]),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_midworkload_switch_matches_final_policy(
        self, keys, a, b, workers, shards, method
    ):
        from repro.core.engine import AcheronEngine

        lo, hi = min(a, b), max(a, b)
        base = acheron_config(
            delete_persistence_threshold=10**6,
            pages_per_tile=3,
            memtable_entries=64,
            entries_per_page=8,
            size_ratio=3,
        )

        def build(policy):
            config = base.with_updates(policy=policy)
            if shards > 1:
                return ShardedEngine(
                    config, shards=shards, key_space=(0, 256), workers=workers
                )
            return AcheronEngine(config, workers=workers)

        switched = build(CompactionStyle.TIERING)
        fresh = build(CompactionStyle.LEVELING)
        try:
            half = len(keys) // 2
            for key in keys[:half]:
                switched.put(key, f"v{key}")
                fresh.put(key, f"v{key}")
            switched.set_policy(CompactionStyle.LEVELING)
            for key in keys[half:]:
                switched.put(key, f"w{key}")
                fresh.put(key, f"w{key}")
            switched.delete_range(lo, hi, method=method)
            fresh.delete_range(lo, hi, method=method)
            assert dict(switched.scan(-1, 10**9)) == dict(fresh.scan(-1, 10**9))
            switched.compact_all()
            fresh.compact_all()
            assert dict(switched.scan(-1, 10**9)) == dict(fresh.scan(-1, 10**9))
            switched.verify_invariants()
        finally:
            switched.close()
            fresh.close()
