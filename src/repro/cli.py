"""Command-line interface.

Five subcommands mirror the ways the demonstration was driven:

* ``demo``     -- the side-by-side baseline-vs-Acheron walkthrough;
* ``workload`` -- run one configurable workload on one engine and print
  its dashboards;
* ``inspect``  -- open a durable directory (read-only semantics: no new
  ops are issued) and print its dashboards;
* ``verify``   -- run the store doctor against a durable directory; exit
  status 1 when corruption is found;
* ``scrub``    -- checksum every SSTable and validate the manifest's
  integrity envelope (the periodic media-scrubber pass); exit status 1
  when any checksum fails;
* ``stats``    -- dump one :class:`EngineStats` snapshot of a durable
  store; ``--json`` emits the machine-readable form (including the
  read-path, write-path, cache, and shard sections) for scripting and
  dashboards;
* ``shell``    -- the hands-on mode: an interactive prompt over one
  engine (put/get/del/purge/dashboards), reading stdin;
* ``record``   -- materialize a generated workload into a checksummed
  trace file that ``workload --replay`` (or any other tool) can replay;
* ``serve``    -- serve a durable store over TCP (the reader-routed
  executor server in :mod:`repro.server.core`); pair with
  ``workload --connect HOST:PORT --clients N`` to replay any workload
  (including ``--adversary``) over the wire.

``workload`` accepts ``--shards N`` to run against a range-partitioned
:class:`~repro.shard.engine.ShardedEngine`; ``inspect``/``stats``/
``verify``/``scrub`` all recognize sharded store roots automatically.
``workload --adversary <name>`` swaps the generated stream for one of the
seeded attack workloads in :mod:`repro.workload.adversarial`, and
``--defended`` turns on the hardened counter-measures (salted blooms,
flood-proof cache admission, hot-shard auto-split under ``--shards``).

Usage: ``python -m repro.cli <command> --help``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.config import CompactionStyle, acheron_config, baseline_config
from repro.core.engine import AcheronEngine
from repro.demo.inspector import ShardInspector, TreeInspector
from repro.demo.scenarios import run_side_by_side
from repro.shard import ShardedEngine, is_sharded_root
from repro.tools.doctor import diagnose_store, scrub_store
from repro.workload.adversarial import ADVERSARIES, build_adversary
from repro.workload.generator import KEY_STRIDE, WorkloadGenerator
from repro.workload.runner import run_workload
from repro.workload.spec import WorkloadSpec

_POLICIES = {style.value: style for style in CompactionStyle}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Acheron reproduction: delete-aware LSM engine tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="side-by-side baseline vs Acheron walkthrough")
    demo.add_argument("--ops", type=int, default=8_000, help="mixed-phase operations")
    demo.add_argument("--preload", type=int, default=4_000, help="preload inserts")
    demo.add_argument("--d-th", type=int, default=10_000, help="delete persistence threshold")
    demo.add_argument("--deletes", type=float, default=0.25, help="delete fraction")
    demo.add_argument("--seed", type=int, default=0xACE)

    wl = sub.add_parser("workload", help="run one workload on one engine")
    wl.add_argument("--engine", choices=["baseline", "acheron"], default="acheron")
    wl.add_argument("--policy", choices=sorted(_POLICIES), default="leveling")
    wl.add_argument("--ops", type=int, default=10_000)
    wl.add_argument("--preload", type=int, default=5_000)
    wl.add_argument("--deletes", type=float, default=0.15, help="delete fraction")
    wl.add_argument("--d-th", type=int, default=10_000)
    wl.add_argument("--pages-per-tile", type=int, default=8, help="KiWi h")
    wl.add_argument("--distribution", choices=["uniform", "zipfian", "hotspot"],
                    default="uniform")
    wl.add_argument("--seed", type=int, default=0xACE)
    wl.add_argument("--directory", default=None, help="durable store directory")
    wl.add_argument("--replay", default=None, help="replay a recorded trace instead of generating")
    wl.add_argument("--shards", type=int, default=1,
                    help="range-partition across this many shard trees")
    wl.add_argument("--writers", type=int, default=None,
                    help="concurrent (shard-affine) writer threads for the replay")
    wl.add_argument("--method", choices=["eager", "lazy", "auto"], default="auto",
                    help="secondary range-delete executor: eager file rewrites, "
                         "lazy O(1) range-tombstone fences, or auto (eager, "
                         "paper-accurate physical cost)")
    wl.add_argument("--adversary", choices=sorted(ADVERSARIES), default=None,
                    help="replace the generated stream with a seeded attack "
                         "workload (see repro.workload.adversarial)")
    wl.add_argument("--defended", action="store_true",
                    help="enable the hardened defenses: salted blooms, "
                         "flood-proof cache admission, and (with --shards) "
                         "hot-shard auto-split")
    wl.add_argument("--memory-budget", type=int, default=None, metavar="PAGES",
                    help="per-shard block-cache budget in pages (the global "
                         "pool is shards x this; default: the engine preset)")
    wl.add_argument("--memory-governor", action="store_true",
                    help="arm the adaptive memory governor (requires "
                         "--shards > 1): live write-buffer/block-cache "
                         "arbitration across shards from observed write "
                         "rate, hit rate, and tombstone density")
    wl.add_argument("--policy-tuner", action="store_true",
                    help="arm the self-tuning compaction governor "
                         "(requires --shards > 1): per-shard live policy "
                         "switching from the observed read/write/delete/"
                         "scan mix, behind hysteresis")
    wl.add_argument("--shard-policies", default=None, metavar="IDX=POLICY,...",
                    help="per-shard compaction policy overrides for "
                         "heterogeneous manual layouts (requires "
                         "--shards > 1), e.g. 0=tiering,2=lazy_leveling; "
                         "unlisted shards keep --policy")
    wl.add_argument("--connect", default=None, metavar="HOST:PORT",
                    help="replay against a live `repro serve` endpoint "
                         "instead of an embedded engine; engine-local "
                         "flags are refused (the server owns the engine)")
    wl.add_argument("--clients", type=int, default=None, metavar="N",
                    help="concurrent pipelined client connections for "
                         "--connect (default 1)")

    serve = sub.add_parser(
        "serve", help="serve a durable store over TCP (shard-affine executor workers)"
    )
    serve.add_argument("directory", help="durable store root (created if missing)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral; the bound address is printed)")
    serve.add_argument("--workers", type=int, default=None,
                       help="executor workers (default: one per shard, max 8)")
    serve.add_argument("--shards", type=int, default=None,
                       help="shard count when creating a new store "
                            "(existing stores keep their recorded layout)")
    serve.add_argument("--key-space", type=int, default=None, metavar="HI",
                       help="upper key bound for the uniform shard "
                            "boundaries of a NEW store; size it to the "
                            "workload's footprint ((preload+ops) x key "
                            "stride 4) or traffic piles into shard 0 "
                            "(default: 1<<20)")

    record = sub.add_parser("record", help="write a generated workload to a trace file")
    record.add_argument("trace_path")
    record.add_argument("--ops", type=int, default=10_000)
    record.add_argument("--preload", type=int, default=5_000)
    record.add_argument("--deletes", type=float, default=0.15)
    record.add_argument("--distribution", choices=["uniform", "zipfian", "hotspot"],
                        default="uniform")
    record.add_argument("--seed", type=int, default=0xACE)

    inspect = sub.add_parser("inspect", help="print dashboards of a durable store")
    inspect.add_argument("directory")

    stats = sub.add_parser("stats", help="dump an EngineStats snapshot of a durable store")
    stats.add_argument("directory")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable JSON instead of dashboards")

    verify = sub.add_parser("verify", help="run the store doctor (exit 1 on corruption)")
    verify.add_argument("directory")

    scrub = sub.add_parser(
        "scrub", help="checksum all sstables + validate the manifest (exit 1 on corruption)"
    )
    scrub.add_argument("directory")

    shell = sub.add_parser("shell", help="interactive engine shell (reads stdin)")
    shell.add_argument("--engine", choices=["baseline", "acheron"], default="acheron")
    shell.add_argument("--d-th", type=int, default=10_000)
    shell.add_argument("--directory", default=None, help="durable store directory")

    return parser


def _spec_from_args(args: argparse.Namespace) -> WorkloadSpec:
    spec = WorkloadSpec(
        operations=args.ops,
        preload=args.preload,
        distribution=getattr(args, "distribution", "uniform"),
        seed=args.seed,
    )
    return spec.with_delete_fraction(args.deletes)


def _cmd_demo(args: argparse.Namespace) -> int:
    scenario = run_side_by_side(
        _spec_from_args(args),
        delete_persistence_threshold=args.d_th,
        memtable_entries=512,
        entries_per_page=32,
    )
    print(scenario.render())
    return 0


#: ``workload`` flags that configure the *embedded* engine and therefore
#: cannot apply when ``--connect`` hands the engine to a remote server:
#: (flag, detector for "the user set it to a non-default value").
_ENGINE_LOCAL_FLAGS = [
    ("--directory", lambda a: a.directory is not None),
    ("--shards", lambda a: a.shards != 1),
    ("--writers", lambda a: a.writers is not None),
    ("--engine", lambda a: a.engine != "acheron"),
    ("--policy", lambda a: a.policy != "leveling"),
    ("--d-th", lambda a: a.d_th != 10_000),
    ("--pages-per-tile", lambda a: a.pages_per_tile != 8),
    ("--defended", lambda a: a.defended),
    ("--memory-budget", lambda a: a.memory_budget is not None),
    ("--memory-governor", lambda a: a.memory_governor),
    ("--policy-tuner", lambda a: a.policy_tuner),
    ("--shard-policies", lambda a: a.shard_policies is not None),
]


def _cmd_workload_connect(args: argparse.Namespace) -> int:
    """The ``workload --connect`` arm: replay over the wire."""
    offending = [flag for flag, is_set in _ENGINE_LOCAL_FLAGS if is_set(args)]
    if offending:
        print(
            f"--connect replays against a remote server, which owns its own "
            f"engine; these engine-local flag(s) cannot apply there: "
            f"{', '.join(offending)}.  Configure the engine on the "
            f"`repro serve` side instead.",
            file=sys.stderr,
        )
        return 2
    if args.clients is not None and args.clients < 1:
        print("--clients must be >= 1", file=sys.stderr)
        return 2
    if args.replay:
        from repro.workload.trace import load_trace

        operations = load_trace(args.replay)
    elif args.adversary:
        # Mirror the embedded arm's build parameters (`repro serve`
        # builds its stores at the same 512-entry memtable scale).
        knobs = {}
        if args.adversary in ("bloom_defeat", "empty_flood"):
            knobs["memtable_entries"] = 512
        operations = build_adversary(
            args.adversary,
            seed=args.seed,
            preload=args.preload,
            operations=args.ops,
            **knobs,
        )
    else:
        operations = WorkloadGenerator(_spec_from_args(args)).operations()
    result = run_workload(
        None,
        operations,
        connect=args.connect,
        clients=args.clients,
        secondary_delete_method=args.method,
    )
    from repro.metrics.server import format_server_load
    from repro.server.client import EngineClient

    with EngineClient(args.connect, pool_size=1) as client:
        remote = client.stats()
    print(format_server_load(remote.get("server", {}), name=args.connect))
    served = result.served or {}
    latencies = sorted(served.get("latencies_us", []))

    def pct(p: float) -> float:
        return latencies[min(len(latencies) - 1, int(p * len(latencies)))] if latencies else 0.0

    print(
        f"\n{result.operations} ops over the wire, {result.wall_seconds:.2f}s wall, "
        f"{served.get('clients', 1)} client(s), "
        f"{result.modeled_throughput_ops_per_s():,.0f} modeled ops/s"
    )
    print(
        f"wall latency p50/p95/p99 (us): "
        f"{pct(0.50):,.0f} / {pct(0.95):,.0f} / {pct(0.99):,.0f}; "
        f"sheds seen {served.get('sheds_seen', 0)}, "
        f"reconnects {served.get('reconnects', 0)}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.server import EngineServer, ServerConfig

    if is_sharded_root(args.directory):
        if args.shards is not None or args.key_space is not None:
            print(
                f"{args.directory} is an existing sharded store; its recorded "
                f"layout decides the shard count and boundaries "
                f"(drop --shards/--key-space)",
                file=sys.stderr,
            )
            return 2
        engine = ShardedEngine(directory=args.directory)
    else:
        engine = ShardedEngine(
            acheron_config(memtable_entries=512, entries_per_page=32),
            directory=args.directory,
            shards=args.shards,
            key_space=(0, args.key_space if args.key_space else 1 << 20),
        )
    server = EngineServer(
        engine,
        ServerConfig(host=args.host, port=args.port, workers=args.workers),
    ).start()
    # Handlers before the readiness line: a supervisor may signal the
    # instant it reads the line, and the default handler would skip the
    # clean stop below.  The handler writes to a pipe rather than setting
    # an Event: it runs on this thread, and Event.set() from inside
    # Event.wait() can block on the Event's own lock.
    wake_r, wake_w = os.pipe()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: os.write(wake_w, b"\0"))
    # The parseable readiness line CI and scripts wait for.
    print(f"serving {args.directory} at {server.address} "
          f"({len(engine.shards)} shard(s))", flush=True)
    os.read(wake_r, 1)
    print("shutting down", flush=True)
    server.stop(close_engine=True)
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    if args.connect:
        return _cmd_workload_connect(args)
    if args.clients is not None:
        print("--clients requires --connect", file=sys.stderr)
        return 2
    scale = {
        "memtable_entries": 512,
        "entries_per_page": 32,
        "policy": _POLICIES[args.policy],
    }
    if args.defended:
        scale["bloom_salted"] = True
        scale["cache_hardened"] = True
    if args.memory_budget is not None:
        if args.memory_budget < 0:
            print("--memory-budget must be >= 0", file=sys.stderr)
            return 2
        scale["cache_pages"] = args.memory_budget
    if args.memory_governor and args.shards <= 1:
        print("--memory-governor requires --shards > 1", file=sys.stderr)
        return 2
    if args.policy_tuner and args.shards <= 1:
        print("--policy-tuner requires --shards > 1", file=sys.stderr)
        return 2
    shard_policies = None
    if args.shard_policies:
        if args.shards <= 1:
            print("--shard-policies requires --shards > 1", file=sys.stderr)
            return 2
        shard_policies = {}
        for item in args.shard_policies.split(","):
            index, sep, policy = item.partition("=")
            if not sep or policy not in _POLICIES or not index.strip().isdigit():
                print(
                    f"--shard-policies entry {item!r} is not IDX=POLICY "
                    f"(policies: {', '.join(sorted(_POLICIES))})",
                    file=sys.stderr,
                )
                return 2
            shard_policies[int(index)] = _POLICIES[policy]
    if args.shards > 1:
        if args.engine == "acheron":
            cfg = acheron_config(
                delete_persistence_threshold=args.d_th,
                pages_per_tile=args.pages_per_tile,
                **scale,
            )
        else:
            cfg = baseline_config(**scale)
        auto_split = None
        if args.defended:
            from repro.shard import AutoSplitConfig

            auto_split = AutoSplitConfig(window_ops=1024, cooldown_ops=4096)
        memory_governor = None
        if args.memory_governor:
            from repro.shard import MemoryGovernorConfig

            memory_governor = MemoryGovernorConfig(window_ops=1024)
        policy_tuner = None
        if args.policy_tuner:
            from repro.shard import PolicyTunerConfig

            policy_tuner = PolicyTunerConfig(window_ops=1024)
        engine = ShardedEngine(
            cfg,
            directory=args.directory,
            shards=args.shards,
            key_space=(0, max(args.shards, (args.preload + args.ops) * KEY_STRIDE)),
            auto_split=auto_split,
            memory_governor=memory_governor,
            shard_policies=shard_policies,
            policy_tuner=policy_tuner,
        )
    elif args.engine == "acheron":
        engine = AcheronEngine.acheron(
            delete_persistence_threshold=args.d_th,
            pages_per_tile=args.pages_per_tile,
            directory=args.directory,
            **scale,
        )
    else:
        engine = AcheronEngine.baseline(directory=args.directory, **scale)
    if args.replay:
        from repro.workload.trace import load_trace

        operations = load_trace(args.replay)
        result = run_workload(
            engine,
            operations,
            writers=args.writers,
            secondary_delete_method=args.method,
        )
    elif args.adversary:
        # Crafted streams must mirror the engine's build parameters
        # (memtable batching and filter sizing) to land their hits.
        knobs = {}
        if args.adversary in ("bloom_defeat", "empty_flood"):
            knobs["memtable_entries"] = scale["memtable_entries"]
        operations = build_adversary(
            args.adversary,
            seed=args.seed,
            preload=args.preload,
            operations=args.ops,
            **knobs,
        )
        result = run_workload(
            engine,
            operations,
            writers=args.writers,
            secondary_delete_method=args.method,
        )
    else:
        generator = WorkloadGenerator(_spec_from_args(args))
        result = run_workload(
            engine,
            generator.operations(),
            writers=args.writers,
            secondary_delete_method=args.method,
        )
    if args.shards > 1:
        engine.write_barrier()
        inspector = ShardInspector(engine, name=args.engine)
    else:
        inspector = TreeInspector(engine, name=args.engine)
    print(inspector.dashboard())
    print(
        f"\n{result.operations} ops, {result.wall_seconds:.2f}s wall, "
        f"{result.modeled_throughput_ops_per_s():,.0f} modeled ops/s"
    )
    engine.close()
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.workload.generator import generate_operations
    from repro.workload.trace import record_trace

    count = record_trace(generate_operations(_spec_from_args(args)), args.trace_path)
    print(f"recorded {count} operations to {args.trace_path}")
    return 0


def _open_readonly(directory: str):
    """Open a durable store read-only, dispatching on its layout."""
    if is_sharded_root(directory):
        return ShardedEngine(directory=directory, read_only=True)
    return AcheronEngine(config=None, directory=directory, read_only=True)


def _cmd_inspect(args: argparse.Namespace) -> int:
    engine = _open_readonly(args.directory)
    if isinstance(engine, ShardedEngine):
        print(ShardInspector(engine, name=args.directory).dashboard(per_shard=True))
    else:
        print(TreeInspector(engine, name=args.directory).dashboard())
    engine.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    engine = _open_readonly(args.directory)
    stats = engine.stats()
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
    elif isinstance(engine, ShardedEngine):
        print(ShardInspector(engine, name=args.directory).dashboard())
    else:
        print(TreeInspector(engine, name=args.directory).dashboard())
    engine.close()
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:
    from repro.demo.shell import DemoShell

    if args.engine == "acheron":
        engine = AcheronEngine.acheron(
            delete_persistence_threshold=args.d_th,
            directory=args.directory,
            memtable_entries=512,
            entries_per_page=32,
        )
    else:
        engine = AcheronEngine.baseline(
            directory=args.directory, memtable_entries=512, entries_per_page=32
        )
    DemoShell(engine, name=args.engine).run(sys.stdin, sys.stdout)
    engine.close()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = diagnose_store(args.directory)
    print(report.render())
    return 0 if report.healthy else 1


def _cmd_scrub(args: argparse.Namespace) -> int:
    report = scrub_store(args.directory)
    print(report.render())
    return 0 if report.healthy else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "workload": _cmd_workload,
        "inspect": _cmd_inspect,
        "stats": _cmd_stats,
        "verify": _cmd_verify,
        "scrub": _cmd_scrub,
        "shell": _cmd_shell,
        "record": _cmd_record,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
