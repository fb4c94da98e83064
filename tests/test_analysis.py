"""Tests for the analytical cost model (sanity + agreement with the
measured engine within first-order tolerance)."""

import pytest

from repro.analysis.model import CostModel, WorkloadProfile
from repro.config import CompactionStyle, acheron_config, baseline_config

from conftest import TINY, make_baseline


@pytest.fixture(autouse=True)
def serial_write_path(monkeypatch):
    # The cost model predicts the serial flush/compaction schedule;
    # batched background flushes (REPRO_WORKERS from the environment)
    # legitimately halve measured write amplification and shift level
    # shapes, so agreement tests must measure the serial engine.
    monkeypatch.setenv("REPRO_WORKERS", "1")


def model(**overrides):
    params = dict(TINY)
    params.update(overrides)
    return CostModel(baseline_config(**params))


class TestShapePredictions:
    def test_levels_exact_for_geometric_capacities(self):
        m = model(memtable_entries=64, size_ratio=3)
        # capacities: L1=192, L1+L2=768, +L3=2496...
        assert m.levels(0) == 0
        assert m.levels(1) == 1
        assert m.levels(192) == 1
        assert m.levels(193) == 2
        assert m.levels(768) == 2
        assert m.levels(769) == 3

    def test_levels_matches_engine(self):
        for n in (150, 700, 2500):
            engine = make_baseline()
            for k in range(n):
                engine.put(k, k)
            engine.flush()
            predicted = model().levels(n)
            actual = engine.tree.deepest_nonempty_level()
            assert abs(predicted - actual) <= 1, (n, predicted, actual)

    def test_runs_per_level(self):
        assert model().runs_per_level() == 1.0
        tier = model(policy=CompactionStyle.TIERING)
        assert tier.runs_per_level() == (1 + 3) / 2  # T=3


class TestWriteAmp:
    def test_policy_ordering(self):
        n = 5000
        leveling = model().write_amplification(n)
        lazy = model(policy=CompactionStyle.LAZY_LEVELING).write_amplification(n)
        tiering = model(policy=CompactionStyle.TIERING).write_amplification(n)
        assert tiering <= lazy <= leveling

    def test_grows_with_data(self):
        m = model()
        assert m.write_amplification(100) < m.write_amplification(100_000)

    def test_within_2x_of_measured_leveling(self):
        n = 4000
        engine = make_baseline(trivial_moves=False)
        for k in range(n):
            engine.put((k * 2654435761) % n, k)  # shuffled, mostly unique
        from repro.metrics.amplification import write_amplification

        measured = write_amplification(engine.tree)
        predicted = model().write_amplification(n)
        assert predicted / 2 <= measured <= predicted * 2, (predicted, measured)


class TestReadModel:
    def test_bloom_fp_rate_reasonable(self):
        assert model(bloom_bits_per_key=0).bloom_false_positive_rate() == 1.0
        ten_bits = model(bloom_bits_per_key=10).bloom_false_positive_rate()
        assert 0.001 < ten_bits < 0.02  # ~1% at 10 bits/key

    def test_missing_lookup_cheaper_than_existing(self):
        m = model()
        n = 10_000
        assert m.point_lookup_pages(n, exists=False) < m.point_lookup_pages(n, exists=True)

    def test_weave_penalty(self):
        classic = model(pages_per_tile=1).point_lookup_pages(10_000, exists=True)
        woven = model(pages_per_tile=8).point_lookup_pages(10_000, exists=True)
        assert woven > classic

    def test_existing_lookup_close_to_one_page_classic(self):
        cost = model().point_lookup_pages(10_000, exists=True)
        assert 1.0 <= cost < 1.3


class TestDeleteModel:
    def test_free_drop_fraction_grows_with_h(self):
        fractions = [
            model(pages_per_tile=h).kiwi_free_drop_fraction(0.33) for h in (1, 4, 16)
        ]
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0  # classic layout drops nothing

    def test_secondary_delete_ordering(self):
        pages, s = 1000, 0.33
        woven = model(pages_per_tile=16).secondary_delete_pages(pages, s)
        classic = model(pages_per_tile=1).secondary_delete_pages(pages, s)
        rewrite = model().full_rewrite_delete_pages(pages, s)
        assert woven < classic < rewrite

    def test_matches_measured_f5_within_2x(self):
        from conftest import make_acheron

        engine = make_acheron(delete_persistence_threshold=10**6, pages_per_tile=4)
        n = 2000
        for i in range(n):
            engine.put((i * 37) % n, f"v{i}")
        engine.flush()
        tree_pages = engine.tree.page_count_on_disk
        report = engine.delete_range(0, engine.clock.now() // 3, method="kiwi")
        predicted = CostModel(engine.config).secondary_delete_pages(tree_pages, 1 / 3)
        measured = report.io.total_pages
        assert predicted / 2.5 <= measured <= predicted * 2.5, (predicted, measured)


class TestFadeModel:
    def _acheron_model(self, d_th=9000):
        params = dict(TINY)
        return CostModel(acheron_config(d_th, pages_per_tile=1, **params))

    def test_ttl_table_matches_scheduler(self):
        from repro.core.fade import FadeScheduler

        params = dict(TINY)
        config = acheron_config(9000, pages_per_tile=1, **params)
        m = CostModel(config)
        scheduler = FadeScheduler(config)
        entries = 2000
        depth = m.levels(entries)
        for level, share in m.fade_ttl_table(entries):
            assert share == scheduler.cumulative_ttl(level, depth)

    def test_ttl_table_requires_threshold(self):
        with pytest.raises(ValueError):
            model().fade_ttl_table(1000)

    def test_persistence_bound(self):
        assert self._acheron_model(1234).persistence_bound() == 1234
        assert model().persistence_bound() is None


class TestSummaryAndProfile:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(unique_entries=0)
        with pytest.raises(ValueError):
            WorkloadProfile(unique_entries=10, delete_fraction=1.0)
        with pytest.raises(ValueError):
            WorkloadProfile(unique_entries=10, range_delete_selectivity=0.0)

    def test_summary_keys(self):
        summary = model().summary(WorkloadProfile(unique_entries=5000))
        assert set(summary) == {
            "levels",
            "write_amplification",
            "pages_per_existing_lookup",
            "pages_per_missing_lookup",
            "space_amplification_bound",
            "bloom_fp_rate",
            "persistence_bound",
        }

    def test_space_bound_exceeds_measured(self):
        profile = WorkloadProfile(unique_entries=3000, delete_fraction=0.2)
        engine = make_baseline()
        import random

        rng = random.Random(3)
        for i in range(4000):
            key = rng.randrange(3000)
            if rng.random() < 0.2:
                engine.delete(key)
            else:
                engine.put(key, i)
        from repro.metrics.amplification import space_amplification

        measured = space_amplification(engine.tree)
        bound = model().space_amplification_bound(profile)
        assert measured <= bound * 1.5, (measured, bound)


class TestPageFilterModel:
    def test_page_filters_shrink_predicted_weave_penalty(self):
        plain = model(pages_per_tile=8, kiwi_page_filters=False).point_lookup_pages(
            10_000, exists=True
        )
        filtered = model(pages_per_tile=8, kiwi_page_filters=True).point_lookup_pages(
            10_000, exists=True
        )
        classic = model(pages_per_tile=1).point_lookup_pages(10_000, exists=True)
        assert filtered < plain
        assert filtered < classic * 1.5  # near-classic cost

    def test_prediction_matches_measured_mitigation(self):
        from conftest import TINY
        from repro.config import acheron_config
        from repro.core.engine import AcheronEngine

        params = dict(TINY)
        config = acheron_config(
            delete_persistence_threshold=10**6,
            pages_per_tile=8,
            kiwi_page_filters=True,
            **params,
        )
        engine = AcheronEngine(config)
        count = 1_000
        for k in range(count):
            engine.put((k * 37) % count, k)
        engine.flush()
        stats = engine.disk.stats
        before = stats.pages_read
        probes = 400
        for k in range(probes):
            engine.get((k * 7) % count)
        measured = (stats.pages_read - before) / probes
        predicted = CostModel(config).point_lookup_pages(count, exists=True)
        assert predicted / 2.5 <= measured <= predicted * 2.5, (predicted, measured)
