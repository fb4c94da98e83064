"""Applying an operation stream to an engine, with per-kind accounting.

The runner is the measurement harness every benchmark builds on: it
executes operations against an :class:`~repro.core.engine.AcheronEngine`
(or a bare tree) and attributes device I/O -- pages read/written and
modeled microseconds -- to each operation kind by reading the disk's raw
counters before and after every call (three integer reads; measurement
does not perturb the experiment).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.workload.spec import Operation, OpKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import AcheronEngine


@dataclass
class OpKindStats:
    """Aggregated cost of all executed operations of one kind."""

    count: int = 0
    pages_read: int = 0
    pages_written: int = 0
    modeled_us: float = 0.0
    results_returned: int = 0  # hits for queries, rows for ranges

    @property
    def pages_read_per_op(self) -> float:
        return self.pages_read / self.count if self.count else 0.0

    @property
    def modeled_us_per_op(self) -> float:
        return self.modeled_us / self.count if self.count else 0.0


@dataclass
class WorkloadResult:
    """The outcome of one workload execution."""

    per_kind: dict[OpKind, OpKindStats] = field(default_factory=dict)
    operations: int = 0
    wall_seconds: float = 0.0
    #: Served-mode extras (``run_workload(connect=...)`` only): client
    #: count, per-request wall latencies in microseconds, and the
    #: client-side shed/reconnect counters.  None for embedded replays.
    served: dict | None = None

    def kind(self, kind: OpKind) -> OpKindStats:
        return self.per_kind.setdefault(kind, OpKindStats())

    @property
    def total_modeled_us(self) -> float:
        return sum(s.modeled_us for s in self.per_kind.values())

    def modeled_throughput_ops_per_s(self) -> float:
        """Operations per second of *modeled device time* -- the
        throughput figure the benchmark tables report."""
        total_s = self.total_modeled_us / 1e6
        return self.operations / total_s if total_s else float("inf")


#: Operation kinds that the engine's batch API can absorb.
_BATCHABLE = frozenset({OpKind.INSERT, OpKind.UPDATE, OpKind.POINT_DELETE})


def run_workload(
    engine: "AcheronEngine",
    operations: Iterable[Operation],
    secondary_delete_window: float = 0.05,
    writers: int | None = None,
    secondary_delete_method: str = "auto",
    connect: str | None = None,
    clients: int | None = None,
) -> WorkloadResult:
    """Execute ``operations`` against ``engine`` with per-kind accounting.

    ``secondary_delete_window``: a SECONDARY_RANGE_DELETE op targets the
    oldest this-fraction of the elapsed time domain (resolved against the
    engine clock at execution, matching the "purge old data" use case).

    ``secondary_delete_method``: forwarded to
    :meth:`AcheronEngine.delete_range` for every secondary delete --
    ``"lazy"`` records an O(1) range-tombstone fence instead of
    rewriting files eagerly.

    ``writers``: when set (>= 2), consecutive *ingest* operations (any mix
    of insert/update/point-delete) are replayed by this many concurrent
    writer threads, partitioned so every key's operations stay on one
    thread in stream order -- final engine contents match the serial
    replay exactly.  Against a :class:`~repro.shard.engine.ShardedEngine`
    the pool is *shard-affine*: keys route by the engine's partition map
    (``shard_for(key) % writers``), so each shard tree is only ever
    touched by one writer thread and the replay is safe even when the
    per-shard trees run serial write paths.  Single-tree engines shard by
    key hash instead.  Non-ingest operations act as barriers (the pool
    drains, the op runs on the calling thread).  Meant for engines opened
    with ``workers > 1`` (or sharded engines); a *serial* single-tree
    engine is replayed sequentially -- per-key order still holds, so
    contents are identical, only the concurrency is gone.  Exception:
    a **fault-injected** engine is refused with :class:`WorkloadError`
    rather than silently degraded -- fault schedules are visit-ordered,
    so a silently serial (or thread-racing) replay would fire them at
    different points than the caller armed them for.

    ``connect``: when set (``"HOST:PORT"``), the stream replays against a
    live :class:`~repro.server.core.EngineServer` at that address instead
    of an embedded engine -- pass ``engine=None``.  ``clients`` (default
    1) concurrent connections replay consecutive ingest chunks with the
    same shard-affine partitioning ``writers`` uses (the server's
    partition map decides, fetched via ping), each connection pipelining
    its lane; non-ingest operations are barriers executed on the calling
    thread.  Per-key order therefore matches the serial replay and final
    served contents are digest-equivalent to the embedded ones.  Modeled
    microseconds come from the per-request server-side cost in each
    response (exact per-kind attribution); page counts are not carried
    over the wire and stay 0.  Wall latencies and client-side
    shed/reconnect counters land in :attr:`WorkloadResult.served`.
    """
    result = WorkloadResult()
    started = time.perf_counter()
    if connect is not None:
        if engine is not None:
            raise WorkloadError(
                "run_workload(connect=...) drives a remote server; pass "
                "engine=None (an embedded engine cannot apply remotely)"
            )
        _run_served(
            connect,
            operations,
            secondary_delete_window,
            max(1, clients or 1),
            result,
            secondary_delete_method,
        )
        result.wall_seconds = time.perf_counter() - started
        return result
    if clients is not None:
        raise WorkloadError("run_workload(clients=...) requires connect=...")
    if writers is not None and writers >= 2:
        if getattr(engine, "faults", None) is not None:
            raise WorkloadError(
                f"run_workload(writers={writers}) refused: the engine is "
                "fault-injected, and multi-writer replay would reorder "
                "fault-point visits (or silently fall back to serial on a "
                "serial tree).  Replay fault-injected engines with "
                "writers=None."
            )
        _run_multi(
            engine,
            operations,
            secondary_delete_window,
            writers,
            result,
            secondary_delete_method,
        )
    else:
        for op in operations:
            _run_one(engine, op, secondary_delete_window, result, secondary_delete_method)
    result.wall_seconds = time.perf_counter() - started
    return result


def _run_one(
    engine: "AcheronEngine",
    op: Operation,
    window: float,
    result: WorkloadResult,
    method: str = "auto",
) -> None:
    stats = engine.disk.stats
    before_read = stats.pages_read
    before_written = stats.pages_written
    before_us = stats.modeled_us
    returned = _apply(engine, op, window, method)
    agg = result.kind(op.kind)
    agg.count += 1
    agg.pages_read += stats.pages_read - before_read
    agg.pages_written += stats.pages_written - before_written
    agg.modeled_us += stats.modeled_us - before_us
    agg.results_returned += returned
    result.operations += 1


def _run_multi(
    engine: "AcheronEngine",
    operations: Iterable[Operation],
    window: float,
    writers: int,
    result: WorkloadResult,
    method: str = "auto",
) -> None:
    """Replay with ``writers`` concurrent ingest threads.

    Consecutive ingest operations form a chunk; each chunk is partitioned
    across ``writers`` threads -- shard-affine for sharded engines (the
    partition map decides, so one shard tree never sees two threads), by
    key hash otherwise -- so all operations on one key stay on one thread
    in stream order and last-writer-wins outcomes match the serial replay
    exactly.  Non-ingest operations are barriers: the pool joins, the op
    runs on the calling thread, then the next chunk begins.

    I/O attribution is *pooled per chunk*: with background flushes and
    compactions overlapping many writers there is no per-op device
    delta to read, so the chunk's total delta is split across its
    operation kinds in proportion to their counts (modeled microseconds
    exactly; pages by largest-remainder so totals still reconcile).
    Throughput derived from these numbers is *ack* throughput -- the
    engine may still be draining background work when the replay ends;
    callers wanting at-rest figures should follow with
    ``engine.tree.write_barrier()`` and measure the extra wall time.
    """
    import threading

    pending: list[Operation] = []
    partition_map = getattr(engine, "partition_map", None)
    if partition_map is not None:
        route = lambda key: partition_map.shard_for(key) % writers  # noqa: E731
    else:
        route = lambda key: hash(key) % writers  # noqa: E731
    # A serial single-tree write path is not thread-safe; such engines
    # are replayed sequentially (documented in run_workload).  Sharded
    # engines always run threaded: shard-affinity guarantees each shard
    # tree is owned by exactly one thread, serial write path or not.
    tree = getattr(engine, "tree", None)
    threaded = partition_map is not None or (
        tree is not None and tree.write_path is not None
    )

    def drain() -> None:
        if not pending:
            return
        shards: list[list[tuple]] = [[] for _ in range(writers)]
        counts: dict[OpKind, int] = {}
        for op in pending:
            if op.kind is OpKind.POINT_DELETE:
                shards[route(op.key)].append(("delete", op.key))
            else:
                shards[route(op.key)].append(("put", op.key, op.value))
            counts[op.kind] = counts.get(op.kind, 0) + 1
        stats = engine.disk.stats
        before_read = stats.pages_read
        before_written = stats.pages_written
        before_us = stats.modeled_us
        errors: list[BaseException] = []

        def writer(ops: list[tuple]) -> None:
            try:
                engine.apply_batch(ops)
            except BaseException as exc:  # surfaced to the caller below
                errors.append(exc)

        if not threaded:
            # Serial tree: its write path is not thread-safe, so apply
            # the shards sequentially.  Per-key order still holds (each
            # key lives in exactly one shard), so final contents match.
            for shard in shards:
                if shard:
                    engine.apply_batch(shard)
        else:
            threads = [
                threading.Thread(target=writer, args=(shard,), name=f"repro-writer-{i}")
                for i, shard in enumerate(shards)
                if shard
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
        delta_read = stats.pages_read - before_read
        delta_written = stats.pages_written - before_written
        delta_us = stats.modeled_us - before_us
        total = len(pending)
        remaining_read, remaining_written = delta_read, delta_written
        kinds = sorted(counts, key=lambda k: counts[k])
        for i, kind in enumerate(kinds):
            share = counts[kind]
            agg = result.kind(kind)
            agg.count += share
            agg.modeled_us += delta_us * (share / total)
            if i == len(kinds) - 1:  # largest kind absorbs the remainder
                agg.pages_read += remaining_read
                agg.pages_written += remaining_written
            else:
                part_read = delta_read * share // total
                part_written = delta_written * share // total
                agg.pages_read += part_read
                agg.pages_written += part_written
                remaining_read -= part_read
                remaining_written -= part_written
        result.operations += total
        pending.clear()

    for op in operations:
        if op.kind in _BATCHABLE:
            pending.append(op)
            continue
        drain()
        _run_one(engine, op, window, result, method)
    drain()


def _run_served(
    address: str,
    operations: Iterable[Operation],
    window: float,
    clients: int,
    result: WorkloadResult,
    method: str = "auto",
) -> None:
    """Replay against a live server with ``clients`` pipelined connections.

    Mirrors :func:`_run_multi`'s structure one-for-one -- consecutive
    ingest chunks partition shard-affinely across client connections (the
    server's partition map routes, so one shard's keys stay on one
    connection in stream order), non-ingest operations barrier on the
    calling thread -- which is what keeps a served replay
    digest-equivalent to an embedded one.  Attribution is exact, not
    pooled: every response carries the modeled microseconds its request
    cost on the server.
    """
    import threading

    from repro.server.client import EngineClient
    from repro.server.protocol import Op
    from repro.shard.partition import PartitionMap

    latencies: list[float] = []
    modeled: list[float] = []
    served: dict = {"address": address, "clients": clients}
    with EngineClient(address, pool_size=clients) as client:
        info = client.ping()  # readiness + topology in one round trip
        pmap = PartitionMap(list(info["boundaries"]))
        conns = [client.acquire() for _ in range(clients)]
        pending: list[Operation] = []
        try:

            def drain() -> None:
                if not pending:
                    return
                lanes: list[list[tuple[OpKind, tuple[int, object]]]] = [
                    [] for _ in range(clients)
                ]
                for op in pending:
                    if op.kind is OpKind.POINT_DELETE:
                        request = (Op.DELETE, (op.key,))
                    else:
                        request = (Op.PUT, (op.key, op.value, None))
                    lanes[pmap.shard_for(op.key) % clients].append((op.kind, request))
                outcomes: list[list | None] = [None] * clients
                errors: list[BaseException] = []

                def lane_worker(index: int) -> None:
                    try:
                        outcomes[index] = conns[index].pipeline(
                            [request for _, request in lanes[index]]
                        )
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                busy = [i for i in range(clients) if lanes[i]]
                if len(busy) == 1:
                    lane_worker(busy[0])
                else:
                    threads = [
                        threading.Thread(
                            target=lane_worker, args=(i,), name=f"repro-client-{i}"
                        )
                        for i in busy
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                if errors:
                    raise errors[0]
                for lane, outcome in zip(lanes, outcomes):
                    if outcome is None:
                        continue
                    for (kind, _), call in zip(lane, outcome):
                        agg = result.kind(kind)
                        agg.count += 1
                        agg.modeled_us += call.cost_us
                        latencies.append(call.wall_us)
                        modeled.append(call.cost_us)
                result.operations += len(pending)
                pending.clear()

            def barrier_op(op: Operation) -> None:
                conn = conns[0]
                kind = op.kind
                if kind is OpKind.POINT_QUERY or kind is OpKind.EMPTY_QUERY:
                    call = conn.call(Op.GET, (op.key,))
                    returned = 1 if call.result[0] else 0
                elif kind is OpKind.RANGE_QUERY:
                    call = conn.call(Op.SCAN, (op.key, op.key_hi, None, False))
                    returned = len(call.result)
                elif kind is OpKind.SECONDARY_RANGE_DELETE:
                    now = conn.call(Op.PING, None).result["tick"]
                    hi = max(0, int(now * window))
                    call = conn.call(Op.DELETE_RANGE, (0, hi, method))
                    returned = call.result["entries_deleted"]
                else:  # pragma: no cover - _BATCHABLE ops never reach here
                    raise ValueError(f"unhandled operation kind {kind}")
                agg = result.kind(kind)
                agg.count += 1
                agg.modeled_us += call.cost_us
                agg.results_returned += returned
                latencies.append(call.wall_us)
                modeled.append(call.cost_us)
                result.operations += 1

            for op in operations:
                if op.kind in _BATCHABLE:
                    pending.append(op)
                    continue
                drain()
                barrier_op(op)
            drain()
            served["sheds_seen"] = sum(c.sheds_seen for c in conns)
            served["reconnects"] = sum(c.reconnects for c in conns)
        finally:
            for conn in conns:
                client.release(conn)
    served["latencies_us"] = latencies
    served["modeled_latencies_us"] = modeled
    result.served = served


def _apply(
    engine: "AcheronEngine", op: Operation, window: float, method: str = "auto"
) -> int:
    """Execute one operation; returns how many results it produced."""
    kind = op.kind
    if kind is OpKind.INSERT or kind is OpKind.UPDATE:
        engine.put(op.key, op.value)
        return 0
    if kind is OpKind.POINT_DELETE:
        engine.delete(op.key)
        return 0
    if kind is OpKind.POINT_QUERY or kind is OpKind.EMPTY_QUERY:
        sentinel = object()
        return 0 if engine.get(op.key, default=sentinel) is sentinel else 1
    if kind is OpKind.RANGE_QUERY:
        return sum(1 for _ in engine.scan(op.key, op.key_hi))
    if kind is OpKind.SECONDARY_RANGE_DELETE:
        now = engine.clock.now()
        hi = max(0, int(now * window))
        report = engine.delete_range(0, hi, method=method)
        return report.entries_deleted
    raise ValueError(f"unhandled operation kind {kind}")  # pragma: no cover
