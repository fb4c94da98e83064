#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

For every pair of end-to-end metric and workload, takes the median of
A's and of B's untraced runs and applies the metric's direction and
bound (bench/metrics.py, the same as BENCHMARK.json):

    ok          B's median is no worse than A's by more than the bound
    regressed   it is worse by more than the bound
    unresolved  the run-to-run spread of A or of B (interquartile range
                over median) is wider than the bound: neither unchanged
                nor regressed can be claimed; lengthen or repeat the runs

Each row prints the ratio B/A beside its base A.  The exit code is 1 when
any row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "bench"]
sys.path.insert(0, str(ROOT))

from bench.metrics import END_TO_END, Definition  # noqa: E402
from bench.stats import relative_spread  # noqa: E402


def values_of(result: dict) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values over the file's untraced runs."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in result["runs"]:
        if run["pass"] != "full":
            continue
        for name, metric in run["metrics"].items():
            if metric["value"] is not None:
                out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def verdict(definition: Definition, base: list[float], new: list[float]) -> tuple[str, float, float]:
    """(ok | regressed | unresolved, B/A, widest spread seen)."""
    a, b = statistics.median(base), statistics.median(new)
    spreads = [s for s in (relative_spread(base), relative_spread(new)) if s is not None]
    spread = max(spreads, default=0.0)
    ratio = b / a if a else float("inf")
    worsening = (b - a) / abs(a) if a else 0.0
    if definition.better == "higher":
        worsening = -worsening
    if spread > definition.bound:
        return "unresolved", ratio, spread
    return ("regressed" if worsening > definition.bound else "ok"), ratio, spread


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (values_of(json.loads(Path(path).read_text())) for path in argv)
    workloads = sorted({workload for workload, _ in first})
    bad = 0
    print(f"{'workload':<15}{'metric':<22}{'A (base)':>14}{'B/A':>9}{'spread':>9}"
          f"{'bound':>7}  verdict")
    for workload in workloads:
        for definition in END_TO_END:
            key = (workload, definition.name)
            if key not in first or key not in second:
                print(f"{workload:<15}{definition.name:<22}{'null':>14}{'':>9}{'':>9}"
                      f"{definition.bound:>7}  not measured in both")
                continue
            word, ratio, spread = verdict(definition, first[key], second[key])
            bad += word != "ok"
            base = statistics.median(first[key])
            print(f"{workload:<15}{definition.name:<22}{base:>14.6g}{ratio:>9.4f}{spread:>9.4f}"
                  f"{definition.bound:>7}  {word}  (n={len(first[key])},{len(second[key])})")
    print(f"{bad} row(s) regressed or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
