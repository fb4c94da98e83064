#!/usr/bin/env python
"""Lazy range-delete cost probe: get latency and install time vs live fences.

Builds one in-memory Acheron engine per fence count F, loads 20k keys,
installs F lazy point fences on delete keys no entry carries (so none
resolves and every fence stays live), then times 20k point gets.  A
fence index that scales keeps get µs flat in F and the total install
time near-linear.

    PYTHONPATH=src python scripts/fence_probe.py [--keys N] [--fences 0,50,500,5000]
"""

from __future__ import annotations

import argparse
import random
import time

from repro import AcheronEngine


def probe(keys: int, fences: int, seed: int = 7) -> tuple[float, float]:
    """(µs per get, total seconds to install ``fences`` lazy deletes)."""
    engine = AcheronEngine.acheron(
        delete_persistence_threshold=10**9, memtable_entries=1024,
        entries_per_page=32, pages_per_tile=8, workers=1,
    )
    for k in range(keys):
        engine.put(k, k, delete_key=2 * k)  # even delete keys only
    engine.flush()
    started = time.perf_counter()
    for i in range(fences):
        odd = 2 * (i * 7919 % keys) + 1
        engine.delete_range(odd, odd, method="lazy")
    installed = time.perf_counter() - started
    order = list(range(keys))
    random.Random(seed).shuffle(order)
    get = engine.get
    started = time.perf_counter()
    for k in order:
        get(k)
    per_get = (time.perf_counter() - started) / keys * 1e6
    engine.close()
    return per_get, installed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, default=20_000)
    parser.add_argument("--fences", default="0,50,500,5000")
    args = parser.parse_args()
    print(f"{'fences':>7} {'get_us':>8} {'install_s':>10}")
    for count in (int(f) for f in args.fences.split(",")):
        per_get, installed = probe(args.keys, count)
        print(f"{count:>7} {per_get:>8.2f} {installed:>10.3f}")


if __name__ == "__main__":
    main()
