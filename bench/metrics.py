"""Names, units and definitions of every metric, and how each is computed.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names:
BENCHMARK.json lists the same ones (bench/tests checks that) and
bench/README.md explains them.

A value is ``None`` -- printed as ``null`` with its reason -- when the
workload issues no such operation, the layer did no work there, the sample
is too small for the percentile, or a trace point has gone missing.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any

from bench.gen import DELETE, GET, PUT, RDEL, SCAN
from bench.served import SEND_LAG_LIMIT_US
from bench.stats import percentile_or_none
from bench.trace import Aggregates
from bench.workloads import Failed, PassData


@dataclass(frozen=True)
class Definition:
    name: str
    unit: str
    better: str
    #: Relative worsening that counts as a regression (end-to-end only).
    bound: float | None
    what: str


END_TO_END = [
    Definition("setup_s", "s", "lower", 0.25,
               "median of the pass's set-ups: constructor (or store build + `repro serve` spawn "
               "and connect) to ready for the first measured op, incl. preload and warm-up"),
    Definition("throughput_ops_s", "ops/s", "higher", 0.15,
               "measured ops / wall s of the closed loop (served_kv: phase saturate)"),
    Definition("op_p50_us", "us", "lower", 0.20,
               "median latency over every measured op (served_kv: phase paced, from due time)"),
    Definition("op_p95_us", "us", "lower", 0.25,
               "p95 of the same sample; p99 and p99.9 are api.op_p99_us and api.op_p999_us: on "
               "served_kv flush and compaction stalls delay about 1 % of the paced requests, so "
               "its p99 sits on a cliff (0.9 ms or 1.8 ms from one run to the next)"),
    Definition("write_amp", "ratio", "lower", 0.04,
               "AmplificationReport.write_amplification at end"),
    Definition("space_amp", "ratio", "lower", 0.10,
               "AmplificationReport.space_amplification, mean over the checkpoints of the "
               "measured phase (8 embedded; served_kv: after each of its 3 phases)"),
    Definition("modeled_io_us_per_op", "us", "lower", 0.12,
               "modeled device time charged in the measured phase / measured ops"),
    Definition("persist_p99_ticks", "ticks", "lower", 0.10,
               "PersistenceStats.p99_latency at end; violations or a fence past D_th fail the run"),
    Definition("peak_rss_mb", "MB", "lower", 0.10,
               "ru_maxrss of the pass's interpreter (served_kv: server VmHWM)"),
]


def _layer(prefix: str, unit: str, better: str, names: str, what: str = "") -> list[Definition]:
    return [Definition(f"{prefix}.{n}", unit, better, None, what) for n in names.split()]


PER_LAYER = [
    # What the caller of the public API sees, per operation class.  These
    # are end-to-end figures that not every workload has, which the
    # driver's flat end-to-end list cannot hold; see bench/README.md.
    *_layer("api", "us", "lower", "op_p99_us op_p999_us get_p50_us get_p99_us write_p50_us write_p99_us "
            "write_p999_us scan_p50_us scan_p99_us range_delete_p50_us"),
    *_layer("api", "pages", "lower", "read_pages_per_get"),
    *_layer("api", "ratio", "lower", "failed_ops_ratio"),
    *_layer("server.client", "us", "lower", "cpu_us_per_op wait_us_per_op"),
    *_layer("server.client", "count", "lower", "sheds_seen reconnects frames_sent_per_op"),
    *_layer("server.protocol", "us", "lower", "encode_us_per_frame_client "
            "encode_us_per_frame_server decode_us_per_frame_client decode_us_per_frame_server"),
    *_layer("server.protocol", "bytes", "lower", "bytes_per_op_client bytes_per_op_server"),
    *_layer("server.protocol", "ratio", "higher", "frames_per_feed_client frames_per_feed_server"),
    *_layer("server.core", "us", "lower", "process_cpu_us_per_op route_cpu_us_per_op"),
    *_layer("server.core", "count", "lower", "ctx_switches_per_op shed_total pipeline_aborts "
            "barrier_ops scatter_batches"),
    *_layer("server.core", "count", "higher", "accepted completed"),
    *_layer("server.core", "ratio", "higher", "engine_share"),
    *_layer("shard.engine", "us", "lower", "route_self_us_per_op scan_merge_self_us"),
    *_layer("shard.engine", "ratio", "lower", "max_shard_op_share"),
    *_layer("shard.partition", "count", "lower", "shard_for_calls_per_op"),
    *_layer("core.engine", "us", "lower", "self_us_per_op"),
    *_layer("core.engine", "ms", "lower", "stats_ms"),
    *_layer("lsm.tree", "us", "lower", "get_self_us put_self_us scan_self_us"),
    *_layer("lsm.tree", "ms", "lower", "flush_ms_total maintain_ms_total"),
    *_layer("lsm.tree", "ratio", "lower", "stall_share"),
    *_layer("lsm.tree", "count", "lower", "lookup_probes lookup_skips_range lookup_skips_bloom "
            "lookup_skips_fence lookup_cache_direct lookup_serves scan_runs_pruned_per_scan "
            "levels_end runs_end flush_count"),
    *_layer("lsm.memtable", "count", "lower", "adds"),
    *_layer("lsm.memtable", "ratio", "higher", "get_hit_ratio"),
    *_layer("lsm.compaction", "count", "lower", "jobs jobs_saturation jobs_ttl_expiry "
            "jobs_level_collapse entries_in entries_out tombstones_dropped fence_resolved "
            "pages_read pages_written"),
    *_layer("lsm.compaction", "us", "lower", "merge_us_per_entry"),
    *_layer("core.fade", "count", "lower", "plan_calls"),
    *_layer("core.fade", "us", "lower", "plan_us_per_call"),
    *_layer("core.fade", "ratio", "higher", "useful_plan_ratio"),
    *_layer("core.persistence", "count", "lower", "registered persisted pending_end violations"),
    *_layer("core.persistence", "ticks", "lower", "max_latency_ticks"),
    *_layer("core.kiwi", "count", "lower", "range_delete_calls entries_deleted pages_dropped "
            "pages_rewritten call_pages_io"),
    *_layer("lsm.fence", "count", "lower", "live_end entries_resolved"),
    *_layer("filters.bloom", "count", "lower", "probes_per_get"),
    *_layer("filters.bloom", "ms", "lower", "build_ms_total"),
    *_layer("filters.bloom", "ratio", "lower", "false_positive_ratio"),
    *_layer("storage.cache", "ratio", "higher", "hit_ratio"),
    *_layer("storage.cache", "count", "lower", "evictions rejected_admissions invalidations "
            "gets_per_get"),
    *_layer("storage.wal", "count", "lower", "appends truncates"),
    *_layer("storage.wal", "us", "lower", "append_us"),
    *_layer("storage.wal", "ratio", "lower", "share"),
    *_layer("storage.filestore", "count", "lower", "sstable_writes manifest_writes"),
    *_layer("storage.filestore", "ms", "lower", "sstable_write_ms_total manifest_write_ms_total"),
    *_layer("storage.filestore", "bytes", "lower", "dir_bytes_end"),
    *_layer("storage.filestore", "s", "lower", "reopen_s"),
    *_layer("storage.disk", "pages", "lower", "pages_read pages_written reads_query "
            "reads_compaction writes_flush writes_compaction writes_secondary_delete"),
    *_layer("storage.disk", "count", "lower", "read_requests write_requests"),
    *_layer("storage.disk", "ms", "lower", "modeled_ms"),
    *_layer("harness", "s", "lower", "generate_s"),
    *_layer("harness", "us", "lower", "send_lag_p50_us send_lag_p99_us loop_us_per_op"),
    *_layer("harness", "ns", "lower", "timer_overhead_ns"),
    *_layer("harness", "ratio", "lower", "trace_overhead_ratio"),
]

_UNITS = {d.name: d.unit for d in END_TO_END + PER_LAYER}


class Ledger:
    """Collects metrics by name as ``{"value", "unit"[, "samples"][, "reason"]}``;
    a None value carries the reason it is null."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}

    def put(self, name: str, value: Any, samples: int | None = None,
            reason: str = "no such work on this workload") -> None:
        metric: dict[str, Any] = {"value": None if value is None else float(value),
                                  "unit": _UNITS[name]}
        if samples is not None:
            metric["samples"] = samples
        if value is None:
            metric["reason"] = reason
        self.metrics[name] = metric

    def ratio(self, name: str, top: Any, bottom: Any, scale: float = 1.0,
              reason: str = "no such work on this workload") -> None:
        """``scale * top / bottom`` with ``bottom`` as the sample count."""
        if top is None:
            self.put(name, None, reason="trace point missing")
        elif not bottom:
            self.put(name, None, reason=reason)
        else:
            self.put(name, scale * top / bottom, samples=int(bottom))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------
@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str]

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems


def judge(data: PassData) -> Verdict:
    """Compare every result with the model; count raised ops as failed."""
    ops, expected = data.ops, data.expected
    problems = list(data.problems)
    failed = 0
    for i, (op, want, got) in enumerate(zip(ops, expected, data.got)):
        if isinstance(got, Failed):
            failed += 1
            if failed <= 3:
                problems.append(f"op {i} {op[:3]} raised {got.error}")
        elif op[0] in (GET, SCAN) and got != want:
            failed += 1
            if failed <= 3:
                problems.append(f"op {i} {op} returned {got!r}, the model says {want!r}")
    persistence = data.after["persistence"]
    if persistence["violations"]:
        problems.append(f"{persistence['violations']} deletes persisted later than D_th")
    fences = data.after["fences"]
    if fences.get("within_threshold") is False:
        problems.append(f"a range fence is {fences['oldest_age']} ticks old, past D_th")
    served = data.served
    if served:
        # The typical request was late, so the backlog grew.  A stall makes
        # the 1 % of requests behind it late too; that is latency, not overload.
        lag = percentile_or_none(served["send_lag_ns"], 0.5)
        if lag is not None and lag / 1e3 > SEND_LAG_LIMIT_US:
            failed += len(served["paced_index"])
            problems.append(f"paced phase overloaded: the median request went out "
                            f"{lag / 1e3:.0f} us late")
    return Verdict(len(ops), min(failed, len(ops)), problems)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------
def _class_of(op: tuple) -> str:
    kind = op[0]
    if kind == GET:
        return "get"
    if kind in (PUT, DELETE):
        return "write"
    if kind == SCAN:
        return "scan"
    return "range_delete"


def latencies_by_class(data: PassData) -> tuple[dict[str, list[int]], list[int]]:
    """Sorted latencies (ns) per op class and overall.

    ``served_kv`` reports its latencies from the paced phase only: the
    saturate phase's per-request times measure queueing in the window.
    """
    ops = data.ops
    picked = data.served["paced_index"] if data.served else range(len(ops))
    by_class: dict[str, list[int]] = {"get": [], "write": [], "scan": [], "range_delete": []}
    for i in picked:
        by_class[_class_of(ops[i])].append(data.latency_ns[i])
    for sample in by_class.values():
        sample.sort()
    return by_class, sorted(x for sample in by_class.values() for x in sample)


def _delta(data: PassData, *path: str) -> float:
    def dig(snapshot: dict) -> float:
        node: Any = snapshot
        for key in path:
            node = node.get(key, 0) if isinstance(node, dict) else 0
        return node or 0

    return dig(data.after) - dig(data.before)


def _levels_delta(data: PassData, field: str) -> int:
    def total(snapshot: dict) -> int:
        return sum(row.get(field, 0) for row in snapshot["read_path"])

    return total(data.after) - total(data.before)


def _us(sample: list[int], fraction: float) -> float | None:
    value = percentile_or_none(sample, fraction)
    return None if value is None else value / 1e3


_TOO_FEW = "fewer than 10 samples beyond the percentile"


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------
def end_to_end(data: PassData) -> dict[str, dict]:
    out = Ledger()
    _, overall = latencies_by_class(data)
    ops = data.ops
    out.put("setup_s", statistics.median(data.setup_s), samples=len(data.setup_s))
    if data.served:
        saturated = data.served["saturate_requests"]
        out.put("throughput_ops_s", saturated / data.served["saturate_wall_s"], samples=saturated)
    else:
        out.put("throughput_ops_s", len(ops) / data.wall_s, samples=len(ops))
    for name, fraction in (("op_p50_us", 0.5), ("op_p95_us", 0.95)):
        out.put(name, _us(overall, fraction), samples=len(overall), reason=_TOO_FEW)
    amplification = data.after["amplification"]
    out.put("write_amp", amplification["write_amplification"])
    out.put("space_amp", sum(data.space_amp) / len(data.space_amp), samples=len(data.space_amp))
    out.put("modeled_io_us_per_op", _delta(data, "io", "modeled_us") / len(ops), samples=len(ops))
    persistence = data.after["persistence"]
    out.put("persist_p99_ticks", persistence["p99_latency"], samples=persistence["persisted"],
            reason="no tombstone persisted")
    out.put("peak_rss_mb", data.peak_rss_mb)
    return out.metrics


# ---------------------------------------------------------------------------
# per layer, from public stats ([s] in the README)
# ---------------------------------------------------------------------------
def from_stats(data: PassData, verdict: Verdict, out: Ledger) -> None:
    ops = data.ops
    by_class, overall = latencies_by_class(data)
    gets = sum(1 for op in ops if op[0] == GET)
    scans = sum(1 for op in ops if op[0] == SCAN)
    n = len(ops)

    for name, fraction in (("op_p99_us", 0.99), ("op_p999_us", 0.999)):
        out.put(f"api.{name}", _us(overall, fraction), samples=len(overall), reason=_TOO_FEW)
    for cls, name, fraction in [
        ("get", "get_p50_us", 0.5), ("get", "get_p99_us", 0.99),
        ("write", "write_p50_us", 0.5), ("write", "write_p99_us", 0.99),
        ("write", "write_p999_us", 0.999),
        ("scan", "scan_p50_us", 0.5), ("scan", "scan_p99_us", 0.99),
        ("range_delete", "range_delete_p50_us", 0.5),
    ]:
        sample = by_class[cls]
        reason = _TOO_FEW if sample else f"the workload issues no {cls}"
        out.put(f"api.{name}", _us(sample, fraction), samples=len(sample), reason=reason)
    out.ratio("api.read_pages_per_get", _delta(data, "io", "reads_by_category", "query"), gets,
              reason="the workload issues no get")
    out.put("api.failed_ops_ratio", verdict.failed / verdict.attempted, samples=verdict.attempted)

    served = data.served
    if served:
        paced = len(served["paced_index"])
        timed = paced + served["saturate_requests"]
        in_call_ns = sum(data.latency_ns[i] for i in served["paced_index"])
        in_call_ns -= sum(served["send_lag_ns"])
        out.put("server.client.cpu_us_per_op",
                (served["paced_cpu_s"] + served["saturate_cpu_s"]) * 1e6 / timed, samples=timed)
        out.put("server.client.wait_us_per_op",
                (in_call_ns / 1e3 - served["paced_cpu_s"] * 1e6) / paced, samples=paced)
        out.put("server.client.sheds_seen", served["sheds_seen"])
        out.put("server.client.reconnects", served["reconnects"])
        out.put("server.core.process_cpu_us_per_op", served["server_cpu_s"] * 1e6 / n, samples=n)
        out.put("server.core.ctx_switches_per_op", served["server_voluntary_switches"] / n,
                samples=n)
        for name in ("accepted", "completed", "shed_total", "pipeline_aborts", "barrier_ops",
                     "scatter_batches"):
            out.put(f"server.core.{name}", _delta(data, "server", name))
        for name, fraction in (("send_lag_p50_us", 0.5), ("send_lag_p99_us", 0.99)):
            out.put(f"harness.{name}", _us(served["send_lag_ns"], fraction),
                    samples=len(served["send_lag_ns"]), reason=_TOO_FEW)
    if data.boundaries:
        shard_ops = [0] * (len(data.boundaries) + 1)
        for op in ops:
            if op[0] != RDEL:
                shard_ops[bisect_right(data.boundaries, op[1])] += 1
        out.put("shard.engine.max_shard_op_share", max(shard_ops) / sum(shard_ops), samples=n)

    out.put("core.engine.stats_ms", data.stats_ms, samples=1)
    for field in ("lookup_probes", "lookup_skips_range", "lookup_skips_bloom",
                  "lookup_skips_fence", "lookup_cache_direct", "lookup_serves"):
        out.ratio(f"lsm.tree.{field}", _levels_delta(data, field), gets,
                  reason="the workload issues no get")
    out.ratio("lsm.tree.scan_runs_pruned_per_scan", _levels_delta(data, "scan_runs_pruned"), scans,
              reason="the workload issues no scan")
    shape = data.after["shape"]
    out.put("lsm.tree.levels_end", sum(1 for level in shape if level["entries"]))
    out.put("lsm.tree.runs_end", sum(level["runs"] for level in shape))
    out.put("lsm.tree.flush_count", _delta(data, "flush_count"))

    out.put("lsm.compaction.jobs", _delta(data, "compaction_count"))
    # STATS carries the count of compactions, not the log of them.
    events = None if served else data.compactions
    unseen = "the compaction log does not cross the wire"
    def over_log(count: Any) -> int | None:
        return None if events is None else sum(count(event) for event in events)

    for why in ("saturation", "ttl_expiry", "level_collapse"):
        out.put(f"lsm.compaction.jobs_{why}", over_log(lambda e: e.reason == why), reason=unseen)
    for field in ("entries_in", "entries_out", "tombstones_dropped", "fence_resolved",
                  "pages_read", "pages_written"):
        out.put(f"lsm.compaction.{field}", over_log(lambda e: getattr(e, field)), reason=unseen)

    persistence = data.after["persistence"]
    out.put("core.persistence.registered", _delta(data, "persistence", "registered"))
    out.put("core.persistence.persisted", _delta(data, "persistence", "persisted"))
    out.put("core.persistence.pending_end", persistence["pending"])
    out.put("core.persistence.max_latency_ticks", persistence["max_latency"],
            reason="no tombstone persisted")
    out.put("core.persistence.violations", persistence["violations"])

    reports = data.range_reports
    out.put("core.kiwi.range_delete_calls", len(reports))
    for field in ("entries_deleted", "pages_dropped", "pages_rewritten"):
        out.put(f"core.kiwi.{field}", sum(getattr(r, field) for r in reports))
    out.put("core.kiwi.call_pages_io", sum(r.pages_touched_by_io for r in reports))
    out.put("lsm.fence.live_end", data.after["fences"]["live"])
    out.put("lsm.fence.entries_resolved", _delta(data, "fences", "entries_resolved_by_compaction"))

    probes = _levels_delta(data, "lookup_probes")
    out.ratio("filters.bloom.false_positive_ratio",
              probes - _levels_delta(data, "lookup_serves"), probes,
              reason="no filter let a lookup through")
    hits, misses = _delta(data, "cache", "hits"), _delta(data, "cache", "misses")
    out.ratio("storage.cache.hit_ratio", hits, hits + misses, reason="the cache saw no lookup")
    for field in ("evictions", "rejected_admissions", "invalidations"):
        out.put(f"storage.cache.{field}", _delta(data, "cache", field))

    out.put("storage.filestore.dir_bytes_end", data.dir_bytes, reason="the store is in memory")
    out.put("storage.filestore.reopen_s", data.reopen_s, reason="the store is in memory")
    for field in ("pages_read", "pages_written", "read_requests", "write_requests"):
        out.put(f"storage.disk.{field}", _delta(data, "io", field))
    out.put("storage.disk.modeled_ms", _delta(data, "io", "modeled_us") / 1e3)
    for name, path in [
        ("reads_query", ("reads_by_category", "query")),
        ("reads_compaction", ("reads_by_category", "compaction")),
        ("writes_flush", ("writes_by_category", "flush")),
        ("writes_compaction", ("writes_by_category", "compaction")),
        ("writes_secondary_delete", ("writes_by_category", "secondary_delete")),
    ]:
        out.put(f"storage.disk.{name}", _delta(data, "io", *path))
    out.put("harness.generate_s", data.generate_s)
    if served:
        out.put("harness.loop_us_per_op", None,
                reason="two client threads; see server.client.cpu_us_per_op")
    else:
        out.put("harness.loop_us_per_op", (data.wall_s * 1e9 - sum(data.latency_ns)) / 1e3 / n,
                samples=n)


# ---------------------------------------------------------------------------
# per layer, from the traced pass ([t] in the README)
# ---------------------------------------------------------------------------
#: The data plane: what the per-op self times are taken over.
_DATA_PLANE = "put get delete scan delete_range".split()
_CODEC = ["encode_frame", "FrameDecoder.feed", "FrameDecoder.next_frame"]
_WAL_APPENDS = ["WriteAheadLog.append", "WriteAheadLog.append_many"]


def from_trace(data: PassData, local: Aggregates, server: Aggregates | None, out: Ledger) -> None:
    """``local`` is this process's trace; ``server`` the served process's
    (None for the embedded workloads, where the engine runs in ``local``)."""
    ops = data.ops
    n = len(ops)
    gets = sum(1 for op in ops if op[0] == GET)
    engine = server if server is not None else local
    # Server spans are thread CPU time (bench/serve_traced.py), so shares
    # are of the server's CPU there, and of the measured wall elsewhere.
    basis_s = data.served["server_cpu_s"] if data.served else data.wall_s

    def scaled(value: float | None, factor: float) -> float | None:
        return None if value is None else value * factor

    if server is not None:
        out.ratio("server.client.frames_sent_per_op", local.calls("encode_frame"), n)
        for side, agg in (("client", local), ("server", server)):
            frames = agg.hits("FrameDecoder.next_frame")
            out.ratio(f"server.protocol.encode_us_per_frame_{side}",
                      agg.total("encode_frame"), agg.calls("encode_frame"), 1e-3)
            out.ratio(f"server.protocol.decode_us_per_frame_{side}",
                      agg.total(_CODEC[1:]), frames, 1e-3)
            out.ratio(f"server.protocol.bytes_per_op_{side}", agg.total(_CODEC[:2], "bytes"), n)
            out.ratio(f"server.protocol.frames_per_feed_{side}", frames,
                      agg.calls("FrameDecoder.feed"))
        # Whole engine calls the server made, bar the STATS snapshots
        # that bracket the phases.
        engine_ns = sum(
            r["total_ns"] for r in server.rows
            if r["parent"] is None and r["kind"] == "span"
            and r["layer"] in ("shard.engine", "core.engine") and not r["name"].endswith(".stats"))
        cpu_ns = basis_s * 1e9
        codec_ns = server.total(_CODEC)
        out.put("server.core.route_cpu_us_per_op",
                scaled(None if codec_ns is None else cpu_ns - engine_ns - codec_ns, 1e-3 / n),
                samples=n, reason="trace point missing")
        out.put("server.core.engine_share", engine_ns / cpu_ns)

    routed = [f"ShardedEngine.{op}" for op in _DATA_PLANE if op != "scan"]
    out.ratio("shard.engine.route_self_us_per_op", engine.self_ns(routed), engine.calls(routed),
              1e-3, reason="no call went through the shard router")
    out.ratio("shard.engine.scan_merge_self_us", engine.self_ns("ShardedEngine.scan"),
              engine.calls("ShardedEngine.scan"), 1e-3,
              reason="no scan went through the shard router")
    lookups = engine.calls("PartitionMap.shard_for")
    out.ratio("shard.partition.shard_for_calls_per_op", lookups, n if lookups != 0 else 0,
              reason="no op was routed")
    facade = [f"AcheronEngine.{op}" for op in _DATA_PLANE]
    out.ratio("core.engine.self_us_per_op", engine.self_ns(facade), engine.calls(facade), 1e-3)

    for op in ("get", "put", "scan"):
        out.ratio(f"lsm.tree.{op}_self_us", engine.self_ns(f"LSMTree.{op}"),
                  engine.calls(f"LSMTree.{op}"), 1e-3, reason=f"the workload issues no {op}")
    flush_ns = engine.total("LSMTree._flush")
    maintain_ns = engine.total("LSMTree.maintain")
    if flush_ns is None or maintain_ns is None:
        for name in ("flush_ms_total", "maintain_ms_total", "stall_share"):
            out.put(f"lsm.tree.{name}", None, reason="trace point missing")
    else:
        # A flush that maintain() itself triggers is counted once, as a flush.
        maintain_ns -= engine.total("LSMTree._flush", parent="LSMTree.maintain")
        out.put("lsm.tree.flush_ms_total", flush_ns / 1e6, samples=engine.calls("LSMTree._flush"))
        out.put("lsm.tree.maintain_ms_total", maintain_ns / 1e6,
                samples=engine.calls("LSMTree.maintain"))
        out.put("lsm.tree.stall_share", (flush_ns + maintain_ns) / 1e9 / basis_s)

    out.put("lsm.memtable.adds", engine.calls("Memtable.add"), reason="trace point missing")
    out.ratio("lsm.memtable.get_hit_ratio", engine.hits("Memtable.get"),
              engine.calls("Memtable.get"), reason="the workload issues no get")
    out.ratio("lsm.compaction.merge_us_per_entry", engine.total("merge_task"),
              sum(e.entries_in for e in data.compactions), 1e-3,
              reason="the compaction log does not cross the wire" if data.served
              else "no merge ran")
    plans = engine.calls("FadeScheduler.plan")
    out.put("core.fade.plan_calls", plans, reason="trace point missing")
    out.ratio("core.fade.plan_us_per_call", engine.total("FadeScheduler.plan"), plans, 1e-3,
              reason="FADE planned nothing")
    out.ratio("core.fade.useful_plan_ratio", engine.hits("FadeScheduler.plan"), plans,
              reason="FADE planned nothing")
    out.ratio("filters.bloom.probes_per_get", engine.calls("BloomFilter.might_contain_hashed"),
              gets, reason="the workload issues no get")
    out.put("filters.bloom.build_ms_total",
            scaled(engine.total(["BloomFilter.build", "BloomFilter.from_hash_pairs"]), 1e-6),
            reason="trace point missing")
    out.ratio("storage.cache.gets_per_get", engine.calls("BlockCache.get"), gets,
              reason="the workload issues no get")

    appends = engine.calls(_WAL_APPENDS)
    out.put("storage.wal.appends", appends, reason="trace point missing")
    out.ratio("storage.wal.append_us", engine.total(_WAL_APPENDS), appends, 1e-3,
              reason="the store is in memory")
    out.put("storage.wal.truncates", engine.calls("WriteAheadLog.truncate"),
            reason="trace point missing")
    out.put("storage.wal.share",
            scaled(engine.total(_WAL_APPENDS + ["WriteAheadLog.truncate"]), 1e-9 / basis_s),
            reason="trace point missing")
    for what in ("sstable", "manifest"):
        name = f"FileStore.write_{what}"
        out.put(f"storage.filestore.{what}_writes", engine.calls(name),
                reason="trace point missing")
        out.put(f"storage.filestore.{what}_write_ms_total", scaled(engine.total(name), 1e-6),
                reason="trace point missing")
