#!/usr/bin/env python3
"""One command for the whole benchmark.

    python3 bench/run.py                      every workload: untraced, then traced
    python3 bench/run.py --smoke              the same at 5 % of the op counts
    python3 bench/run.py --workload read_static --seed 7 --seconds 10 --trace 0

With ``--workload`` this is the driver's contract (BENCHMARK.json): one
run, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics under ``--trace 0``, the per-layer metrics under ``--trace 1``.
Every pass runs in an interpreter of its own, so RSS, GC state and trace
wrappers never leak from one into the next; ``--trace 1`` therefore starts
two children, an untraced reference pass and the traced pass, on the same
stream.  The exit code is non-zero on a wrong result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# `python3 bench/run.py` puts bench/ first on sys.path, where trace.py
# would shadow the standard library's module of that name.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "bench"]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

DEFAULT_SEED = 20230618
DEFAULT_SECONDS = 10
WORK_DIR = ROOT / ".bench_work"
#: Raw spans of a traced pass land beside its --out file under these suffixes.
SPANS, SERVER_SPANS = ".spans.jsonl", ".server.spans.jsonl"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the measured phase the op counts are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, untraced; 1: per-layer metrics")
    parser.add_argument("--repeats", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", help="write the full results to this JSON file")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced passes")
    parser.add_argument("--smoke", action="store_true",
                        help="5 %% of the op counts, one set-up per pass: a quick end-to-end check")
    # One pass in this interpreter; what `--trace 1` starts twice.
    parser.add_argument("--pass", dest="single_pass", choices=("reference", "traced"),
                        help=argparse.SUPPRESS)
    # Set on every child: the parent has already warned about the load.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@contextmanager
def scratch_dir(prefix: str):
    """A directory of this run's own under ``.bench_work/``, gone afterwards."""
    WORK_DIR.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run is using it
            pass


# ---------------------------------------------------------------------------
# one pass, in this interpreter
# ---------------------------------------------------------------------------
def timer_overhead_ns() -> float:
    now = time.perf_counter_ns
    stamps = [now() for _ in range(20_001)]
    return statistics.median(b - a for a, b in zip(stamps, stamps[1:]))


def run_pass(args: argparse.Namespace, kind: str) -> dict:
    """``kind``: ``full`` (what --trace 0 reports), ``reference`` or ``traced``."""
    from bench import host, metrics, served, workloads
    from bench.trace import Tracer

    spec = workloads.SPECS[args.workload]
    scale = workloads.SMOKE_SCALE if args.smoke else 1.0
    repeats = spec.setup_repeats if kind == "full" and not args.smoke else 1
    info = host.fingerprint(ROOT, args.seed, warn=not args.child)
    tracer = Tracer() if kind == "traced" else None
    traced: dict = {"closure": None, "layer_self_ms": {}, "trace_points_missing": [],
                    "trace_aggregates": {}}
    with scratch_dir(f"{spec.name}-") as scratch:
        workdir = Path(scratch)
        server_dump = str(workdir / "server-trace.json") if tracer and spec.served else None
        if tracer:
            tracer.install()
        try:
            if spec.served:
                data = served.run_served(spec, args.seed, args.seconds, scale, repeats, workdir,
                                         ROOT, server_dump, tracer)
            else:
                data = workloads.run_embedded(spec, args.seed, args.seconds, scale, repeats,
                                              workdir, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        verdict = metrics.judge(data)
        ledger = metrics.Ledger()
        if kind == "full":
            ledger.metrics.update(metrics.end_to_end(data))
        elif kind == "reference":
            metrics.from_stats(data, verdict, ledger)
            ledger.put("harness.timer_overhead_ns", timer_overhead_ns())
        else:
            traced = report_trace(args, data, tracer, server_dump, ledger)
    return {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "pass": kind,
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
        "wall_s": data.wall_s,
        **traced,
        "metrics": ledger.metrics,
        "host": host.finish(info),
    }


def report_trace(args: argparse.Namespace, data, tracer, server_dump: str | None, ledger) -> dict:
    """The traced pass's metrics into ``ledger``; returns the self-time
    ledger by layer, its closure against the wall clock, and what is missing."""
    from bench import metrics
    from bench.trace import Aggregates

    def in_ms(by_layer: dict[str, int]) -> dict[str, float]:
        return {layer: ns / 1e6 for layer, ns in sorted(by_layer.items())}

    local = Aggregates(tracer.aggregates(), tracer.missing)
    missing = list(tracer.missing)
    layers = {"this process (wall ms)": in_ms(local.layer_self_ns())}
    remote = None
    if server_dump:
        dumped = json.loads(Path(server_dump).read_text())
        remote = Aggregates(dumped["aggregates"], dumped["missing"])
        missing += [f"server:{name}" for name in dumped["missing"]]
        layers["server (thread CPU ms)"] = in_ms(remote.layer_self_ns())
    metrics.from_trace(data, local, remote, ledger)
    closure = None
    if not data.served:
        # In a traced pass the harness loop is whatever no span covers,
        # the wrappers' own entry and exit included.  Self times and span
        # totals are accumulated apart, so this checks the self-time
        # arithmetic against the wall clock.
        wall_ns = data.wall_s * 1e9
        loop_ns = wall_ns - local.root_total_ns()
        closure = (sum(local.layer_self_ns().values()) + loop_ns) / wall_ns
        layers["this process (wall ms)"]["harness"] = loop_ns / 1e6
    if args.out:
        tracer.write_spans(args.out + SPANS)
        if server_dump:
            shutil.copy(server_dump + SPANS, args.out + SERVER_SPANS)
    return {"closure": closure, "layer_self_ms": layers, "trace_points_missing": missing,
            "trace_aggregates": {"this process": local.rows, "server": remote.rows if remote else []}}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------
def child(args: argparse.Namespace, extra: list[str], out: str) -> dict:
    """Run this script again in a fresh interpreter; returns what it wrote."""
    command = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", out, "--child", *extra]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if not Path(out).exists():
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{' '.join(extra)} failed with exit code {done.returncode}")
    return json.loads(Path(out).read_text())


def traced_run(args: argparse.Namespace, scratch: str) -> dict:
    """Reference pass, traced pass, and what the two say together."""
    from bench import metrics

    reference = child(args, ["--workload", args.workload, "--pass", "reference"],
                      os.path.join(scratch, "reference.json"))
    traced_out = os.path.join(scratch, "traced.json")
    traced = child(args, ["--workload", args.workload, "--pass", "traced"], traced_out)
    if args.out:
        for suffix in (SPANS, SERVER_SPANS):
            if os.path.exists(traced_out + suffix):
                shutil.move(traced_out + suffix, args.out + suffix)
    merged = {**reference["metrics"], **traced["metrics"]}
    merged["harness.trace_overhead_ratio"] = {
        "value": traced["wall_s"] / reference["wall_s"], "unit": "ratio"}
    for definition in metrics.PER_LAYER:
        merged.setdefault(definition.name, {
            "value": None, "unit": definition.unit,
            "reason": "no such work on this workload"})
    result = dict(reference)
    result.update({
        "pass": "traced",
        "correct": reference["correct"] and traced["correct"],
        "attempted": reference["attempted"] + traced["attempted"],
        "failed": reference["failed"] + traced["failed"],
        "problems": reference["problems"] + traced["problems"],
        "closure": traced["closure"],
        "layer_self_ms": traced["layer_self_ms"],
        "trace_aggregates": traced["trace_aggregates"],
        "trace_points_missing": traced["trace_points_missing"],
        "traced_wall_s": traced["wall_s"],
        "metrics": merged,
    })
    return result


def driver_line(result: dict, names: list[str]) -> str:
    """The contract's last line.  It wants a number for every metric: a
    metric that is null here (see its reason in --out) reads 0."""
    chosen = {}
    for name in names:
        metric = result["metrics"][name]
        chosen[name] = {"value": metric["value"] if metric["value"] is not None else 0,
                        "unit": metric["unit"]}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": chosen})


def show(result: dict, names: list[str]) -> None:
    for name in names:
        metric = result["metrics"][name]
        if metric["value"] is None:
            text = f"null ({metric.get('reason')})"
        else:
            text = f"{metric['value']:.6g} {metric['unit']}"
            if "samples" in metric:
                text += f"  n={metric['samples']}"
        print(f"  {name:<44} {text}")
    for where, by_layer in result["layer_self_ms"].items():
        total = sum(by_layer.values())
        print(f"  traced self time by layer, {where}: {total:.0f} in all")
        for layer, ms in by_layer.items():
            print(f"    {layer:<20} {ms:>10.1f}  {ms / total:6.1%}")
    if result["closure"] is not None:
        print(f"  layer self times + harness loop = {result['closure']:.4f} of the traced wall")
    for name in result["trace_points_missing"]:
        print(f"  trace point missing: {name}")
    for problem in result["problems"]:
        print(f"  WRONG: {problem}")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    from bench import metrics, workloads

    if args.workload not in workloads.SPECS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {', '.join(workloads.SPECS)}")
    if args.single_pass:
        result = run_pass(args, args.single_pass)
        names = list(result["metrics"])
    elif args.trace == 1:
        with scratch_dir("traced-") as scratch:
            result = traced_run(args, scratch)
        names = [d.name for d in metrics.PER_LAYER]
    else:
        result = run_pass(args, "full")
        names = [d.name for d in metrics.END_TO_END]
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    print(f"{result['workload']} seed={result['seed']} pass={result['pass']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    show(result, names)
    if not args.single_pass:
        print(driver_line(result, names))
    return 0 if result["correct"] else 1


def run_suite(args: argparse.Namespace) -> int:
    from bench import host, metrics, workloads

    info = host.fingerprint(ROOT, args.seed)
    runs = []
    with scratch_dir("suite-") as scratch:
        for name in workloads.SPECS:
            for repeat in range(args.repeats):
                out = os.path.join(scratch, f"{name}-{repeat}.json")
                runs.append(child(args, ["--workload", name, "--trace", "0"], out))
            if not args.no_trace:
                # Kept beside --out, so that the raw spans survive the run.
                out = f"{args.out}.{name}.json" if args.out else os.path.join(scratch, name)
                runs.append(child(args, ["--workload", name, "--trace", "1"], out))
    for name in workloads.SPECS:
        mine = [r for r in runs if r["workload"] == name]
        untraced = [r for r in mine if r["pass"] == "full"]
        print(f"\n== {name}: end to end, median of {len(untraced)} untraced run(s)")
        show(_median_of(untraced), [d.name for d in metrics.END_TO_END])
        for traced in (r for r in mine if r["pass"] == "traced"):
            print(f"-- {name}: per layer (untraced reference pass and traced pass)")
            show(traced, [d.name for d in metrics.PER_LAYER])
    wrong = [r for r in runs if not r["correct"]]
    print(f"\n{len(runs)} run(s), {len(wrong)} wrong")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"host": host.finish(info), "seed": args.seed, "seconds": args.seconds,
             "smoke": args.smoke, "runs": runs}, indent=1))
    return 1 if wrong else 0


def _median_of(results: list[dict]) -> dict:
    """One result whose metric values are the medians over ``results``."""
    merged = dict(results[0])
    merged["problems"] = [p for r in results for p in r["problems"]]
    merged["metrics"] = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metric = dict(first)
        if all(v is not None for v in values):
            metric["value"] = statistics.median(values)
        merged["metrics"][name] = metric
    return merged


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
