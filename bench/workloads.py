"""The four workloads: what each one is, and how the embedded ones run.

Sizes are constants chosen from sizing probes on the 2-core sandbox (see
bench/README.md): ``ops_per_second`` is the number of measured operations
issued per requested ``--seconds``, so the measured phase lasts about
``--seconds`` there while the op count -- and with it every modeled
counter -- is a function of ``(seed, seconds)`` alone.
"""

from __future__ import annotations

import gc
import resource
import shutil
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, NamedTuple

from bench import gen
from bench.gen import DELETE, GET, PUT, SCAN, Mix

#: ``space_amp`` is the mean over this many evenly spaced checkpoints of the
#: measured phase: at any one instant it depends on whether a compaction
#: has just run (1.00 to 1.16 at the end of ``mixed_sharded`` across seeds).
SPACE_CHECKPOINTS = 8
#: Share of the op counts a ``--smoke`` run keeps.
SMOKE_SCALE = 0.05


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    #: Behind a ``repro serve`` process (bench/served.py), not embedded.
    served: bool
    durable: bool
    #: ``acheron_config`` arguments; ``cache_pages`` is per shard.
    config: dict
    mix: Mix
    ops_per_second: int
    preload: int
    preload_deletes: int = 0
    setup_fence_window: float = 0.0
    warmup_gets: int = 0
    shards: int = 1
    #: Set-ups per untraced pass: ``setup_s`` is their median and the last
    #: one is measured.  The quick set-ups repeat more often, because one
    #: hiccup is a large share of a quarter of a second.
    setup_repeats: int = 3

    def sizes(self, seconds: float, scale: float) -> "Sizes":
        return Sizes(
            ops=max(200, int(self.ops_per_second * seconds * scale)),
            preload=max(500, int(self.preload * scale)),
            preload_deletes=int(self.preload_deletes * scale),
            warmup_gets=int(self.warmup_gets * scale),
        )

    def key_span(self, preload: int, ops: int) -> int:
        """Width of the key space for one stream: twice the largest live
        population, so a get drawn at random from it is empty about as
        often as not and a scan sees rows."""
        mix = self.mix
        weights = mix.insert + mix.update + mix.delete + mix.get_hit + mix.get_empty + mix.scan
        return 2 * (preload + int(ops * mix.insert / weights) + gen.SCAN_SLOTS)


class Sizes(NamedTuple):
    """Op counts of one run (per connection on ``served_kv``)."""

    ops: int
    preload: int
    preload_deletes: int
    warmup_gets: int


_SHAPE = dict(memtable_entries=1024, entries_per_page=32, pages_per_tile=8)

SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in [
        Spec(
            name="ingest_delete",
            why="durable delete-heavy ingest with eager range deletes: memtable, WAL, "
            "flush, compaction, FADE and the filestore do all the work, the read path none",
            served=False,
            durable=True,
            config=dict(_SHAPE, delete_persistence_threshold=20_000, cache_pages=0),
            mix=Mix(insert=0.45, update=0.25, delete=0.30, resurrect=0.10,
                    rdel_every=5_000, rdel_method="auto"),
            ops_per_second=11_000,
            preload=20_000,
            setup_repeats=5,
        ),
        Spec(
            name="read_static",
            why="zipfian gets, empty gets and scans on a static tree ten times larger than "
            "its cache: fence, bloom, cache and page descent do all the work, the write path none",
            served=False,
            durable=False,
            config=dict(_SHAPE, delete_persistence_threshold=20_000, cache_pages=190),
            mix=Mix(get_hit=0.70, get_empty=0.15, scan=0.15, zipf_theta=0.99),
            ops_per_second=25_000,
            preload=60_000,
            preload_deletes=6_000,
            setup_fence_window=0.02,
            warmup_gets=6_000,
        ),
        Spec(
            name="mixed_sharded",
            why="reads beside writes on four shards with lazy range deletes: compaction "
            "invalidates the cache under lookups, fences sit on the read path, the router merges scans",
            served=False,
            durable=False,
            config=dict(_SHAPE, delete_persistence_threshold=10_000, cache_pages=96),
            mix=Mix(insert=0.20, update=0.15, delete=0.10, get_hit=0.40, get_empty=0.08,
                    scan=0.07, zipf_theta=0.99, rdel_every=500, rdel_method="lazy",
                    rdel_window=0.01),
            ops_per_second=45_000,
            preload=24_000,
            shards=4,
            setup_repeats=7,
        ),
        Spec(
            name="served_kv",
            why="a real `repro serve` process over loopback, working set inside the cache: "
            "codec, sockets, thread hand-offs and admission dominate, engine work is minimal",
            served=True,
            durable=True,
            config=dict(_SHAPE, delete_persistence_threshold=4_000, cache_pages=1024),
            mix=Mix(insert=0.10, update=0.10, delete=0.05, get_hit=0.60, get_empty=0.10,
                    scan=0.05),
            # Per connection: requests of the saturate phase per requested
            # second (the paced phase is sized by its own rate, served.py).
            ops_per_second=1_600,
            preload=10_000,
            preload_deletes=1_500,
            shards=4,
        ),
    ]
}


# ---------------------------------------------------------------------------
# what a pass hands back
# ---------------------------------------------------------------------------
@dataclass
class PassData:
    """Raw material of one pass; metrics.py turns it into named metrics."""

    spec: Spec
    streams: list[gen.Stream]
    #: Per op, parallel to the concatenated streams: latency in ns (from the
    #: due time in a paced phase) and what came back.
    latency_ns: list[int]
    got: list[Any]
    wall_s: float
    setup_s: list[float]
    generate_s: float
    before: dict  # stats().to_dict() before the measured phase
    after: dict
    stats_ms: float
    #: Space amplification at each checkpoint (empty in a traced pass).
    space_amp: list[float]
    compactions: list[Any]  # CompactionEvents of the measured phase
    range_reports: list[Any]  # SecondaryDeleteReports of the measured phase
    boundaries: list[int]
    peak_rss_mb: float
    #: What the run itself found wrong (digests, invariants, server exit).
    problems: list[str]
    dir_bytes: int | None = None
    reopen_s: float | None = None
    #: served_kv only: phase split, send lag, client/server process figures.
    served: dict | None = None

    @cached_property
    def ops(self) -> list[tuple]:
        """Every measured op, the connections' streams one after another."""
        return [op for stream in self.streams for op in stream.ops]

    @cached_property
    def expected(self) -> list[Any]:
        return [e for stream in self.streams for e in stream.expected]


class Failed:
    """Stands in the ``got`` list for an operation that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.error = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failed({self.error})"


def engine_config(spec: Spec):
    from repro.config import acheron_config

    return acheron_config(**spec.config)


def open_engine(spec: Spec, directory: str | None, key_hi: int, fresh: bool = True):
    """The engine of ``spec``; ``fresh=False`` reopens what the directory
    records (the store is self-describing)."""
    if spec.shards > 1:
        from repro.shard.engine import ShardedEngine

        return ShardedEngine(
            engine_config(spec) if fresh else None,
            directory=directory,
            shards=spec.shards if fresh else None,
            key_space=(0, key_hi),
            workers=1,
            wal_sync=False,
            policy_tuner=False,
        )
    from repro.core.engine import AcheronEngine

    return AcheronEngine(
        engine_config(spec) if fresh else None,
        directory=directory,
        workers=1,
        wal_sync=False,
    )


def apply_setup(engine: Any, stream: gen.Stream) -> None:
    """Bulk-load the preload, apply the set-up deletes, flush, warm up."""
    batch: list[tuple] = []
    for op in stream.setup:
        if op[0] in (PUT, DELETE):
            batch.append(op)
            continue
        if batch:
            engine.apply_batch(batch)
            batch = []
        engine.delete_range(op[1], op[2], method=op[3])
    if batch:
        engine.apply_batch(batch)
    if stream.warmup:
        engine.flush()
        get = engine.get
        for op in stream.warmup:
            get(op[1])


def drive(engine: Any, ops: list[tuple], latency_ns: list[int], got: list[Any],
          first: int, last: int) -> float:
    """The closed measured loop over ``ops[first:last]``; returns wall seconds.

    Each call is timed on its own and a scan is drained inside its timed
    region; what came back is kept for the oracle, which runs afterwards.
    """
    get, put, delete = engine.get, engine.put, engine.delete
    scan, delete_range = engine.scan, engine.delete_range
    fingerprint = gen.scan_fingerprint
    now = time.perf_counter_ns
    begin = now()
    for i in range(first, last):
        op = ops[i]
        kind = op[0]
        t0 = now()
        try:
            if kind == GET:
                result = get(op[1])
                t1 = now()
            elif kind == PUT:
                result = put(op[1], op[2], op[3])
                t1 = now()
            elif kind == DELETE:
                result = delete(op[1])
                t1 = now()
            elif kind == SCAN:
                result = list(scan(op[1], op[2]))
                t1 = now()
                result = fingerprint(result)
            else:
                result = delete_range(op[1], op[2], method=op[3])
                t1 = now()
        except Exception as exc:  # noqa: BLE001 - a failed op is a counted result
            t1 = now()
            result = Failed(exc)
        latency_ns[i] = t1 - t0
        got[i] = result
    return (now() - begin) / 1e9


def stored_digest(engine: Any, key_hi: int) -> str:
    return gen.contents_digest(engine.scan(0, key_hi))


def compaction_logs(engine: Any) -> list[list]:
    shards = getattr(engine, "shards", None) or [engine]
    return [shard.tree.compaction_log for shard in shards]


def directory_bytes(directory: str) -> int:
    return sum(f.stat().st_size for f in Path(directory).rglob("*") if f.is_file())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_embedded(spec: Spec, seed: int, seconds: float, scale: float,
                 setup_repeats: int, workdir: Path, tracer: Any = None) -> PassData:
    sizes = spec.sizes(seconds, scale)
    key_hi = spec.key_span(sizes.preload, sizes.ops)
    started = time.perf_counter()
    stream = gen.generate(
        seed, spec.mix, sizes.ops, sizes.preload, 0, key_hi,
        preload_deletes=sizes.preload_deletes,
        setup_fence_window=spec.setup_fence_window,
        warmup_gets=sizes.warmup_gets,
    )
    generate_s = time.perf_counter() - started

    engine = None
    directory = None
    setup_s = []
    for repeat in range(setup_repeats):
        if engine is not None:
            engine.close()
            if directory:
                shutil.rmtree(directory)
        if spec.durable:
            directory = str(workdir / f"store-{repeat}")
        started = time.perf_counter()
        engine = open_engine(spec, directory, key_hi)
        apply_setup(engine, stream)
        setup_s.append(time.perf_counter() - started)
    gc.collect()
    gc.freeze()

    logs = compaction_logs(engine)
    log_marks = [len(log) for log in logs]
    before = engine.stats().to_dict()
    latency_ns = [0] * len(stream.ops)
    got: list[Any] = [None] * len(stream.ops)
    if tracer is not None:
        tracer.reset()  # the set-up is not part of the traced phase
    # The clock stops at each checkpoint while stats() walks the tree.  A
    # traced pass takes none: their spans would count as measured work.
    checkpoints = SPACE_CHECKPOINTS if tracer is None else 1
    marks = [len(stream.ops) * part // checkpoints for part in range(checkpoints + 1)]
    wall_s = 0.0
    space_amp = []
    for first, last in zip(marks, marks[1:]):
        wall_s += drive(engine, stream.ops, latency_ns, got, first, last)
        if tracer is None:
            space_amp.append(engine.stats().amplification.space_amplification)
    if tracer is not None:
        tracer.uninstall()  # the checks below are not part of the traced phase either

    started = time.perf_counter()
    after = engine.stats().to_dict()
    stats_ms = (time.perf_counter() - started) * 1e3
    compactions = [event for log, mark in zip(logs, log_marks) for event in log[mark:]]
    boundaries = list(engine.partition_map.to_list()) if spec.shards > 1 else []

    problems = []
    expected_digest = stream.model.digest()
    try:
        engine.verify_invariants()
    except Exception as exc:  # noqa: BLE001 - any invariant failure fails the run
        problems.append(f"verify_invariants: {type(exc).__name__}: {exc}")
    if stored_digest(engine, key_hi) != expected_digest:
        problems.append("final contents digest differs from the model")
    engine.close()
    dir_bytes = reopen_s = None
    if spec.durable:
        dir_bytes = directory_bytes(directory)
        started = time.perf_counter()
        reopened = open_engine(spec, directory, key_hi, fresh=False)
        reopen_s = time.perf_counter() - started
        if stored_digest(reopened, key_hi) != expected_digest:
            problems.append("contents digest after close and reopen differs from the model")
        reopened.close()

    return PassData(
        spec=spec, streams=[stream], latency_ns=latency_ns, got=got,
        wall_s=wall_s, setup_s=setup_s, generate_s=generate_s,
        before=before, after=after, stats_ms=stats_ms, space_amp=space_amp,
        compactions=compactions,
        range_reports=[r for r in got if hasattr(r, "pages_dropped")],
        boundaries=boundaries, peak_rss_mb=peak_rss_mb(),
        dir_bytes=dir_bytes, reopen_s=reopen_s, problems=problems,
    )
