"""F7 -- KiWi tile-size sensitivity: what ``h`` buys and what it costs.

The weave's tuning knob: with ``h`` pages per delete tile, a secondary
range delete can drop up to ``(h-2)/h`` of the covered pages for free, but
a point lookup inside a tile must probe up to ``h`` candidate pages and a
range scan must fetch all ``h``.  One dataset, ``h`` swept, all three
costs measured -- the figure behind the demo's "choose your layout" panel.
"""

from repro.bench import ExperimentResult, make_acheron, record_experiment

ENTRIES = 24_000
POINT_LOOKUPS = 2_000
RANGE_QUERIES = 300
RANGE_SPAN = 200
H_SWEEP = [1, 2, 4, 8, 16]


def _load(engine):
    for i in range(ENTRIES):
        engine.put((i * 48_271) % ENTRIES, f"v{i}")
    engine.flush()


def _point_cost(engine):
    import numpy as np

    rng = np.random.default_rng(0xF7)
    stats = engine.disk.stats
    before = stats.pages_read
    for _ in range(POINT_LOOKUPS):
        engine.get(int(rng.integers(0, ENTRIES)))
    return (stats.pages_read - before) / POINT_LOOKUPS


def _range_cost(engine):
    import numpy as np

    rng = np.random.default_rng(0xF7 + 1)
    stats = engine.disk.stats
    before = stats.pages_read
    for _ in range(RANGE_QUERIES):
        lo = int(rng.integers(0, ENTRIES - RANGE_SPAN))
        for _ in engine.scan(lo, lo + RANGE_SPAN):
            pass
    return (stats.pages_read - before) / RANGE_QUERIES


def test_f7_kiwi_tile_sensitivity(benchmark, shape_check):
    rows = []
    series = {}
    mitigated = {}

    def run():
        for h in H_SWEEP:
            # The sweep measures the raw weave: page filters off.
            engine = make_acheron(10**6, pages_per_tile=h, kiwi_page_filters=False)
            _load(engine)
            point = _point_cost(engine)
            rng_cost = _range_cost(engine)
            cutoff = engine.clock.now() // 3
            report = engine.delete_range(0, cutoff, method="kiwi")
            series[h] = (point, rng_cost, report.io.total_pages, report.pages_dropped)
            rows.append(
                [
                    f"h={h}",
                    round(point, 3),
                    round(rng_cost, 2),
                    report.pages_dropped,
                    report.pages_rewritten,
                    report.io.total_pages,
                    round(report.io.modeled_us / 1000.0, 2),
                ]
            )
            engine.close()
        # The paper's mitigation (on by default): page filters prune candidates.
        for h in (8, 16):
            engine = make_acheron(10**6, pages_per_tile=h, kiwi_page_filters=True)
            _load(engine)
            point = _point_cost(engine)
            mitigated[h] = point
            rows.append([f"h={h} +page-filters", round(point, 3), None, None, None, None, None])
            engine.close()

    benchmark.pedantic(run, rounds=1, iterations=1)
    record_experiment(
        ExperimentResult(
            exp_id="F7",
            title="KiWi pages-per-tile (h) sweep: read penalty vs delete benefit",
            headers=[
                "h",
                "pages/point lookup",
                "pages/range query",
                "delete: dropped free",
                "delete: rewritten",
                "delete: total I/O pages",
                "delete: modeled ms",
            ],
            rows=rows,
            notes=(
                "Claim shape: secondary-delete I/O falls monotonically with h "
                "while point/range read costs rise -- the tradeoff the paper's "
                "tuning discussion navigates."
            ),
        ),
        benchmark,
    )

    shape_check(
        series[16][2] < series[1][2],
        "delete I/O at h=16 should be far below h=1",
    )
    shape_check(
        series[16][0] >= series[1][0],
        "point-lookup cost should not fall as h grows",
    )
    shape_check(
        series[16][1] >= series[1][1],
        "range-query cost should not fall as h grows",
    )
    shape_check(series[16][3] > series[1][3], "free page drops should grow with h")
    for h in (8, 16):
        shape_check(
            mitigated[h] < series[h][0],
            f"per-page filters should cut h={h} point-read cost "
            f"({mitigated[h]:.2f} vs {series[h][0]:.2f})",
        )
